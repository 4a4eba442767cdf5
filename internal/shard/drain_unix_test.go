//go:build unix

package shard_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// processCPU is the CPU time every thread of this process has used.
// It may run off the test goroutine, so it reports with Error.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Error(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestCoordinateDrainDoesNotSpin: both production callers close their
// drain channel, and a closed channel is always ready. Coordinate must
// take it once and then wait on its ticker while a started shard takes
// its time honouring the drain — not busy-loop on the channel, burning
// a core until every shard has drained.
func TestCoordinateDrainDoesNotSpin(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	dir := t.TempDir()
	ttl := time.Second
	h := newFleetHarness(t, dir, spec, ttl)
	// The shard's first job holds until the placement is withdrawn,
	// then takes honour more to finish: the drain window.
	const honour = 1500 * time.Millisecond
	started := make(chan struct{})
	var once sync.Once
	h.startRun("w1", func(ctx context.Context, p leasesvc.Placement, pdrain <-chan struct{}) error {
		slow := func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
			once.Do(func() { close(started) })
			select {
			case <-pdrain:
				time.Sleep(honour)
			case <-ctx.Done():
			}
			return pureRunner(ctx, s, j)
		}
		_, err := shard.RunShard(ctx, shard.RunConfig{
			Dir: p.Dir, Assignment: shard.Assignment{Index: p.Shard, Of: p.Of},
			Spec: spec, Runner: slow, Drain: pdrain, BeatEvery: 100 * time.Millisecond,
			Lease: h.svc, LeaseTTL: ttl, Owner: "w1",
		})
		return err
	})

	drain := make(chan struct{})
	type mark struct {
		wall time.Time
		cpu  time.Duration
	}
	// Drain only once a scheduler tick has seen the shard started:
	// Progress runs once per tick, and the second tick after the first
	// job began observed the lease already held.
	var ticks atomic.Int32
	drainedAt := make(chan mark, 1)
	go func() {
		<-started
		for n := ticks.Load(); ticks.Load() < n+2; {
			time.Sleep(5 * time.Millisecond)
		}
		drainedAt <- mark{time.Now(), processCPU(t)}
		close(drain)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err := shard.Coordinate(ctx, shard.Config{
		Dir: dir, Spec: spec, Shards: 1, Fleet: h.svc, Drain: drain, Log: t.Logf,
		Poll:     20 * time.Millisecond,
		Progress: func(int, int) { ticks.Add(1) },
	})
	cpu, wall := processCPU(t), time.Now()
	if !errors.Is(err, campaign.ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	from := <-drainedAt
	window, used := wall.Sub(from.wall), cpu-from.cpu
	t.Logf("drain window %s, process CPU %s", window.Round(time.Millisecond), used.Round(time.Millisecond))
	if window < time.Second {
		t.Fatalf("drain window %s is under 1s — the shard never held the drain open", window)
	}
	if used > window/4 {
		t.Fatalf("Coordinate burned %s of CPU over a %s drain window (> 25%%): the drain arm spins",
			used.Round(time.Millisecond), window.Round(time.Millisecond))
	}
	h.drainAll()
}
