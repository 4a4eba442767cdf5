package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/durable"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// The supervision loop's cases, driven by in-process RunWorker
// workers against one lease service — the shape a local `rhfleet
// -coordinate` deploys as processes and rhserved as goroutines.

func TestCoordinateHappyPath(t *testing.T) {
	spec := testSpec()
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	h := newFleetHarness(t, dir, spec, time.Second)
	h.startWorker("w1", nil, nil)
	h.startWorker("w2", nil, nil)
	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 4, Fleet: h.svc, Poll: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("coordinated summary differs:\n%s\nwant:\n%s", got, want)
	}
	h.drainAll()
}

// TestCoordinateReassignsDeadShard: the worker running shard 1 dies
// after one job; the coordinator must reassign the shard's remaining
// jobs to a fresh attempt and still merge byte-identical.
func TestCoordinateReassignsDeadShard(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	h := newFleetHarness(t, dir, spec, 300*time.Millisecond)
	shard1 := shard.Partition(3)[1].Filter(spec)
	var mu sync.Mutex
	victim := ""
	victimJobs := 0
	respawned := false
	didOne := make(chan string)
	// The first worker to touch shard 1 completes one of its jobs, then
	// wedges until killed (context cancel stands in for SIGKILL; the
	// checkpointed record survives either way). Any later run of
	// shard 1 is the reassignment.
	runner := func(id string) campaign.Runner {
		return func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
			if !shard1[j.Key()] {
				return pureRunner(ctx, s, j)
			}
			mu.Lock()
			if victim == "" {
				victim = id
			}
			mine := victim == id
			if mine {
				victimJobs++
			} else {
				respawned = true
			}
			first := mine && victimJobs == 1
			mu.Unlock()
			if mine && !first {
				<-ctx.Done()
				return campaign.Record{}, ctx.Err()
			}
			rec, err := pureRunner(ctx, s, j)
			if first {
				go func() { didOne <- id }()
			}
			return rec, err
		}
	}
	for _, id := range []string{"w1", "w2", "w3"} {
		h.startWorker(id, runner(id), nil)
	}
	go func() {
		id := <-didOne
		time.Sleep(30 * time.Millisecond) // let the record land
		h.kill(id)
	}()

	var logMu sync.Mutex
	var logs []string
	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 3, Fleet: h.svc,
		Poll: 50 * time.Millisecond,
		Log: func(f string, args ...any) {
			logMu.Lock()
			logs = append(logs, strings.TrimSpace(fmt.Sprintf(f, args...)))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("coordinate: %v (logs: %v)", err, logs)
	}
	mu.Lock()
	if !respawned {
		t.Fatal("shard 1 was never reassigned — the test is vacuous")
	}
	mu.Unlock()
	if !rep.Complete() {
		t.Fatalf("incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("reassigned summary differs:\n%s\nwant:\n%s", got, want)
	}
	logMu.Lock()
	defer logMu.Unlock()
	var sawReassign bool
	for _, l := range logs {
		if strings.Contains(l, "reassigning") {
			sawReassign = true
		}
	}
	if !sawReassign {
		t.Fatalf("no reassignment logged: %v", logs)
	}
	h.drainAll()
}

// TestCoordinateKillsStalledShard: a worker that is alive (lease held)
// but silent past the TTL must lose its shard, and the slice must be
// reassigned.
func TestCoordinateKillsStalledShard(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ttl := 150 * time.Millisecond
	h := newFleetHarness(t, dir, spec, ttl)
	var stalledGen0 atomic.Bool
	run := func(id string) func(context.Context, leasesvc.Placement, <-chan struct{}) error {
		return func(ctx context.Context, p leasesvc.Placement, pdrain <-chan struct{}) error {
			if p.Shard == 0 && stalledGen0.CompareAndSwap(false, true) {
				// Take the lease, then hang without ever beating until
				// the coordinator withdraws the placement.
				g, err := h.svc.Acquire(ctx, p.LeaseKey(), id, ttl)
				if err != nil {
					return err
				}
				select {
				case <-pdrain:
				case <-ctx.Done():
				}
				h.svc.Release(context.Background(), p.LeaseKey(), g.Token)
				return errors.New("killed while stalled")
			}
			_, err := shard.RunShard(ctx, shard.RunConfig{
				Dir: p.Dir, Assignment: shard.Assignment{Index: p.Shard, Of: p.Of},
				Spec: spec, Runner: pureRunner, Drain: pdrain, BeatEvery: 10 * time.Millisecond,
				Lease: h.svc, LeaseTTL: ttl, Owner: id,
			})
			return err
		}
	}
	h.startRun("w1", run("w1"))
	h.startRun("w2", run("w2"))
	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2, Fleet: h.svc,
		Poll: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stalledGen0.Load() {
		t.Fatal("stall worker never ran — vacuous")
	}
	if !rep.Complete() {
		t.Fatalf("incomplete after stall recovery: %v", rep.Missing)
	}
	if res.Total != len(campaign.Expand(spec)) {
		t.Fatalf("Total = %d", res.Total)
	}
	h.drainAll()
}

// TestCoordinateGivesUpAfterMaxRespawns: a shard that dies on every
// generation must abort the campaign with a named-shard error, not
// crash-loop forever.
func TestCoordinateGivesUpAfterMaxRespawns(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ttl := time.Second
	h := newFleetHarness(t, dir, spec, ttl)
	var deaths atomic.Int32
	run := func(id string) func(context.Context, leasesvc.Placement, <-chan struct{}) error {
		return func(ctx context.Context, p leasesvc.Placement, pdrain <-chan struct{}) error {
			runner := campaign.Runner(pureRunner)
			if p.Shard == 0 {
				// Every generation of shard 0 wedges and is killed 30ms
				// after it starts.
				deaths.Add(1)
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 30*time.Millisecond)
				defer cancel()
				runner = func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
					<-ctx.Done()
					return campaign.Record{}, ctx.Err()
				}
			}
			_, err := shard.RunShard(ctx, shard.RunConfig{
				Dir: p.Dir, Assignment: shard.Assignment{Index: p.Shard, Of: p.Of},
				Spec: spec, Runner: runner, Drain: pdrain, BeatEvery: 10 * time.Millisecond,
				Lease: h.svc, LeaseTTL: ttl, Owner: id,
			})
			return err
		}
	}
	h.startRun("w1", run("w1"))
	h.startRun("w2", run("w2"))
	_, _, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2, MaxRespawns: 2, Fleet: h.svc,
		Poll: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("crash-looping shard should abort the campaign")
	}
	if !strings.Contains(err.Error(), "shard 0/2") || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("error should name the shard and the give-up: %v", err)
	}
	if n := deaths.Load(); n != 3 { // gen 0 + MaxRespawns reassignments
		t.Fatalf("ran %d generations, want 3", n)
	}
	h.drainAll()
}

// TestCoordinateDrainThenResume: a drain mid-run stops cleanly with
// ErrDrained; a second Coordinate over the same directory finishes
// the grid and merges byte-identical — the coordinator-restart path.
func TestCoordinateDrainThenResume(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	ttl := 200 * time.Millisecond
	h := newFleetHarness(t, dir, spec, ttl)
	drain := make(chan struct{})
	var ranMu sync.Mutex
	ran := 0
	// From the second job on, every job holds until the coordinator's
	// drain reaches its shard, so the drain always lands mid-shard.
	run := func(id string) func(context.Context, leasesvc.Placement, <-chan struct{}) error {
		return func(ctx context.Context, p leasesvc.Placement, pdrain <-chan struct{}) error {
			slow := func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
				ranMu.Lock()
				ran++
				if ran == 2 {
					close(drain)
				}
				hold := ran >= 2
				ranMu.Unlock()
				if hold {
					select {
					case <-pdrain:
					case <-ctx.Done():
					}
				}
				return pureRunner(ctx, s, j)
			}
			_, err := shard.RunShard(ctx, shard.RunConfig{
				Dir: p.Dir, Assignment: shard.Assignment{Index: p.Shard, Of: p.Of},
				Spec: spec, Runner: slow, Drain: pdrain, BeatEvery: 10 * time.Millisecond,
				Lease: h.svc, LeaseTTL: ttl, Owner: id,
			})
			return err
		}
	}
	h.startRun("w1", run("w1"))
	h.startRun("w2", run("w2"))
	_, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2, Drain: drain, Fleet: h.svc,
		Poll: 50 * time.Millisecond,
	})
	if !errors.Is(err, campaign.ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	if rep == nil || rep.Complete() {
		t.Fatal("drained run should be incomplete")
	}
	h.drainAll()

	h2 := newFleetHarness(t, dir, spec, ttl)
	h2.startWorker("w3", nil, nil)
	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2, Fleet: h2.svc, Poll: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("resumed coordinate incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("drain+resume summary differs:\n%s\nwant:\n%s", got, want)
	}
	h2.drainAll()
}

func TestCoordinateRefusesSecondCoordinator(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	lock, err := durable.AcquireLock(shard.CoordinatorLockPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Release()
	_, _, err = shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2, Fleet: leasesvc.NewService(0),
	})
	if !errors.Is(err, durable.ErrLocked) {
		t.Fatalf("want ErrLocked, got %v", err)
	}
}

// TestCoordinateSeedsTokenFloorFromFence: a coordinator restarted with
// a fresh lease service must not lock out a shard that was handed over
// before the restart. The fence file remembers token 2; a fresh
// service would mint token 1, which RaiseFence refuses forever —
// Coordinate lifts the service's token floor from the fence first.
func TestCoordinateSeedsTokenFloorFromFence(t *testing.T) {
	spec := testSpec()
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	a := shard.Assignment{Index: 0, Of: 2}
	if err := shard.RaiseFence(shard.FencePath(dir, a), 2); err != nil {
		t.Fatal(err)
	}
	h := newFleetHarness(t, dir, spec, time.Second)
	h.startWorker("w1", nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, rep, err := shard.Coordinate(ctx, shard.Config{
		Dir: dir, Spec: spec, Shards: 2, MaxRespawns: 1, Fleet: h.svc,
		Poll: 20 * time.Millisecond, Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("coordinate over a handed-over shard: %v", err)
	}
	if !rep.Complete() {
		t.Fatalf("incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("summary differs:\n%s\nwant:\n%s", got, want)
	}
	if tok, err := shard.ReadFence(shard.FencePath(dir, a)); err != nil || tok != 3 {
		t.Fatalf("shard %s fence = %d (%v), want 3 (one past the floor)", a, tok, err)
	}
	h.drainAll()
}
