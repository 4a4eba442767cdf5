package shard_test

import (
	"context"
	"testing"
	"time"

	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// The coordinator's view of a shard lease: ServiceProbe over the lease
// service, judged by StallTracker.

func TestLeaseAcquireProbeBeatRelease(t *testing.T) {
	ctx := context.Background()
	svc := leasesvc.NewService(time.Hour)
	probe := shard.ServiceProbe(svc, "cafe")
	a := shard.Assignment{Index: 1, Of: 4}
	key := leasesvc.Key{Campaign: "cafe", Shard: 1, Of: 4}
	g, err := svc.Acquire(ctx, key, "w1", 0)
	if err != nil {
		t.Fatal(err)
	}

	p, err := probe(a)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Held || p.Token != g.Token {
		t.Fatalf("live lease probes Held=%v Token=%d, want true/%d", p.Held, p.Token, g.Token)
	}

	if err := svc.Beat(ctx, key, g.Token, leasesvc.Beat{Seq: 1, Done: 7, Total: 10}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Beat(ctx, key, g.Token, leasesvc.Beat{Seq: 2, Done: 9, Total: 10}); err != nil {
		t.Fatal(err)
	}
	p, err = probe(a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Done != 9 || p.Total != 10 || p.Seq != 2 {
		t.Fatalf("after 2 beats: %+v", p)
	}

	if err := svc.Release(ctx, key, g.Token); err != nil {
		t.Fatal(err)
	}
	if p, err = probe(a); err != nil || p.Held {
		t.Fatalf("released lease probes %+v (%v)", p, err)
	}
}

func TestLeaseProbeMissing(t *testing.T) {
	p, err := shard.ServiceProbe(leasesvc.NewService(0), "cafe")(shard.Assignment{Index: 0, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p != (shard.Probe{}) {
		t.Fatalf("never-acquired lease probes %+v", p)
	}
}

// TestLeaseStalled: a holder whose heartbeat Seq stays frozen on the
// observer's clock past the TTL is stalled; a beat clears it, and an
// unheld lease is dead, never stalled.
func TestLeaseStalled(t *testing.T) {
	ctx := context.Background()
	svc := leasesvc.NewService(time.Hour)
	probe := shard.ServiceProbe(svc, "cafe")
	a := shard.Assignment{Index: 0, Of: 1}
	key := leasesvc.Key{Campaign: "cafe", Shard: 0, Of: 1}
	g, err := svc.Acquire(ctx, key, "w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	tr := &shard.StallTracker{Now: func() time.Time { return now }}
	stalled := func() bool {
		t.Helper()
		p, err := probe(a)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Stalled(0, p, time.Second)
	}

	if stalled() {
		t.Fatal("fresh lease reported stalled")
	}
	// Let the observer's clock run past the TTL without a beat.
	now = now.Add(2 * time.Second)
	if !stalled() {
		t.Fatal("frozen live lease should stall")
	}
	// A beat advances Seq and clears the stall clock.
	if err := svc.Beat(ctx, key, g.Token, leasesvc.Beat{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if stalled() {
		t.Fatal("beat did not clear the stall clock")
	}
	// Stalled is only meaningful for a live holder: a released shard is
	// dead, not stalled.
	svc.Release(ctx, key, g.Token)
	now = now.Add(time.Hour)
	if stalled() {
		t.Fatal("unheld lease reported stalled")
	}
}
