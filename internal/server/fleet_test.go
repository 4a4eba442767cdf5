package server

import (
	"bytes"
	"context"
	"testing"
	"time"

	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// fleetWorkerRun builds the Run func a fleet worker uses — the
// placement runner `rhfleet -worker` runs, with a fast heartbeat.
func fleetWorkerRun(fleet *leasesvc.Service, ttl time.Duration) func(context.Context, leasesvc.Placement, <-chan struct{}) error {
	return func(ctx context.Context, p leasesvc.Placement, drain <-chan struct{}) error {
		return RunPlacement(ctx, p, drain, shard.RunConfig{
			BeatEvery: 25 * time.Millisecond, Lease: fleet, LeaseTTL: ttl,
		}, nil)
	}
}

func waitLiveWorkers(t *testing.T, fleet *leasesvc.Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		live := 0
		for _, w := range fleet.Workers() {
			if w.Alive {
				live++
			}
		}
		if live >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%d fleet workers never came alive", n)
}

// TestFleetSubmitByteIdenticalArtifact: a sharded campaign submitted
// to a manager with live registered workers runs entirely on the
// fleet — the manager spawns nothing — and publishes an artifact
// byte-identical to the unsharded in-process run. The workers resolve
// the persisted spec.json themselves, so this also pins the wire
// round-trip a real rhfleet -worker performs.
func TestFleetSubmitByteIdenticalArtifact(t *testing.T) {
	refMgr, refStore := newTestManager(t, t.TempDir(), ManagerConfig{})
	refSt, _, err := refMgr.Submit(tinyFig5())
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, refMgr, refSt.ID); s.State != StateDone {
		t.Fatalf("unsharded run: %+v", s)
	}
	_, want, err := refStore.Get(refSt.ID)
	if err != nil {
		t.Fatal(err)
	}

	ttl := 500 * time.Millisecond
	fleet := leasesvc.NewService(ttl)
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	for _, id := range []string{"w1", "w2"} {
		id := id
		go shard.RunWorker(wctx, shard.WorkerConfig{
			Registry: fleet, ID: id, TTL: ttl,
			Run: fleetWorkerRun(fleet, ttl),
			Log: t.Logf,
		})
	}
	waitLiveWorkers(t, fleet, 2)

	mgr, st := newTestManager(t, t.TempDir(), ManagerConfig{Fleet: fleet, Log: t.Logf})
	spec := tinyFig5()
	spec.Shards = 3
	sub, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != refSt.ID {
		t.Fatalf("fleet fan-out changed the campaign identity: %s vs %s", sub.ID, refSt.ID)
	}
	final := waitTerminal(t, mgr, sub.ID)
	if final.State != StateDone {
		t.Fatalf("fleet run: %+v", final)
	}
	_, got, err := st.Get(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet artifact differs from unsharded run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestFleetFallsBackInProcessWhenEmpty: a Fleet with no live workers
// must not strand sharded campaigns — they run in-process, the
// degenerate case.
func TestFleetFallsBackInProcessWhenEmpty(t *testing.T) {
	fleet := leasesvc.NewService(500 * time.Millisecond)
	mgr, _ := newTestManager(t, t.TempDir(), ManagerConfig{Fleet: fleet})
	spec := tinyFig5()
	spec.Shards = 2
	sub, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, mgr, sub.ID); s.State != StateDone {
		t.Fatalf("empty-fleet sharded run: %+v", s)
	}
}

// TestFleetFallsBackWhenFleetVanishes: the fleet-vs-in-process choice
// is not one-shot. When every registered worker dies mid-campaign,
// the scheduler's bounded no-worker wait surfaces ErrNoWorkers and
// the manager finishes the remaining shards in-process — the campaign
// completes instead of pinning one of the max-active slots on
// "waiting" forever.
func TestFleetFallsBackWhenFleetVanishes(t *testing.T) {
	ttl := 150 * time.Millisecond
	fleet := leasesvc.NewService(ttl)
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan struct{})
	// A worker that acquires whatever it is handed and then blocks,
	// heartbeating its lease — healthy-looking until it is killed.
	go func() {
		defer close(workerDone)
		shard.RunWorker(wctx, shard.WorkerConfig{
			Registry: fleet, ID: "doomed", TTL: ttl, Log: t.Logf,
			Run: func(ctx context.Context, p leasesvc.Placement, _ <-chan struct{}) error {
				g, err := fleet.Acquire(ctx, p.LeaseKey(), "doomed", ttl)
				if err != nil {
					return err
				}
				defer fleet.Release(context.Background(), p.LeaseKey(), g.Token)
				tick := time.NewTicker(ttl / 4)
				defer tick.Stop()
				for seq := uint64(1); ; seq++ {
					select {
					case <-ctx.Done():
						return ctx.Err()
					case <-tick.C:
						fleet.Beat(ctx, p.LeaseKey(), g.Token, leasesvc.Beat{Seq: seq})
					}
				}
			},
		})
	}()
	waitLiveWorkers(t, fleet, 1)

	mgr, st := newTestManager(t, t.TempDir(), ManagerConfig{Fleet: fleet, Log: t.Logf})
	spec := tinyFig5()
	spec.Shards = 2
	sub, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the whole fleet once a shard is visibly running on it, so
	// the campaign has committed to fleet placement.
	deadline := time.Now().Add(10 * time.Second)
	for held := false; !held; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no shard lease ever became held on the fleet")
		}
		for _, v := range fleet.List() {
			held = held || v.Held
		}
	}
	wcancel()
	<-workerDone

	if s := waitTerminal(t, mgr, sub.ID); s.State != StateDone {
		t.Fatalf("vanished-fleet campaign = %+v, want done via in-process fallback", s)
	}
	if _, _, err := st.Get(sub.ID); err != nil {
		t.Fatalf("artifact missing after fallback: %v", err)
	}
}
