package leasesvc

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock is the test clock: advance it, never sleep.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testKey() Key { return Key{Campaign: "deadbeefdeadbeef", Shard: 1, Of: 4} }

func TestAcquireMintsMonotonicTokens(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()
	key := testKey()

	g1, err := s.Acquire(ctx, key, "a:1", 0)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if g1.Token != 1 {
		t.Fatalf("first token = %d, want 1", g1.Token)
	}
	if g1.TTL != time.Second {
		t.Fatalf("default TTL = %v, want 1s", g1.TTL)
	}
	if err := s.Release(ctx, key, g1.Token); err != nil {
		t.Fatalf("release: %v", err)
	}
	g2, err := s.Acquire(ctx, key, "b:2", 0)
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if g2.Token != 2 {
		t.Fatalf("second token = %d, want 2 (monotonic)", g2.Token)
	}
}

func TestAcquireRefusedWhileHeldFresh(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()
	key := testKey()

	if _, err := s.Acquire(ctx, key, "a:1", 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	_, err := s.Acquire(ctx, key, "b:2", 0)
	if !errors.Is(err, ErrHeld) {
		t.Fatalf("second acquire = %v, want ErrHeld", err)
	}
	var held *HeldError
	if !errors.As(err, &held) || held.Owner != "a:1" {
		t.Fatalf("HeldError owner = %+v, want a:1", err)
	}
}

// The core of satellite 1, service side: a lease whose Seq keeps
// advancing never expires no matter how much wall clock passes
// between beats being *sent* (the worker's clock is irrelevant);
// a lease whose Seq freezes expires after TTL even if beats with the
// same Seq keep arriving.
func TestExpiryJudgedBySeqMonotonicity(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()
	key := testKey()

	g, err := s.Acquire(ctx, key, "a:1", 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	held := func() bool {
		t.Helper()
		v, ok, err := s.View(ctx, key)
		if err != nil || !ok {
			t.Fatalf("view: ok=%v err=%v", ok, err)
		}
		return v.Held
	}
	// Seq advances every 900ms, with a replay of the previous Seq in
	// between: always fresh, and Held throughout.
	for seq := uint64(1); seq <= 5; seq++ {
		clk.advance(450 * time.Millisecond)
		if err := s.Beat(ctx, key, g.Token, Beat{Seq: seq - 1}); err != nil {
			t.Fatalf("replayed beat seq %d: %v", seq-1, err)
		}
		if !held() {
			t.Fatalf("lease not Held after a replayed beat while Seq advances (seq %d)", seq-1)
		}
		clk.advance(450 * time.Millisecond)
		if err := s.Beat(ctx, key, g.Token, Beat{Seq: seq}); err != nil {
			t.Fatalf("beat seq %d: %v", seq, err)
		}
		if !held() {
			t.Fatalf("lease not Held while Seq advances (seq %d)", seq)
		}
		if _, err := s.Acquire(ctx, key, "b:2", 0); !errors.Is(err, ErrHeld) {
			t.Fatalf("acquire while fresh = %v, want ErrHeld", err)
		}
	}
	// Frozen Seq replayed: the staleness clock must NOT advance.
	for i := 0; i < 3; i++ {
		clk.advance(500 * time.Millisecond)
		if err := s.Beat(ctx, key, g.Token, Beat{Seq: 5}); err != nil {
			t.Fatalf("replayed beat: %v", err)
		}
		if i == 0 && !held() {
			t.Fatal("lease not Held with Seq frozen for less than a TTL")
		}
	}
	// Frozen for 1.5s > TTL while same-Seq beats keep arriving: lapsed.
	if held() {
		t.Fatal("lease still Held with Seq frozen for more than a TTL")
	}
	g2, err := s.Acquire(ctx, key, "b:2", 0)
	if err != nil {
		t.Fatalf("acquire after frozen-Seq expiry: %v", err)
	}
	if g2.Token != g.Token+1 {
		t.Fatalf("successor token = %d, want %d", g2.Token, g.Token+1)
	}
}

func TestBeatFencedAfterSupersession(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()
	key := testKey()

	g1, _ := s.Acquire(ctx, key, "a:1", 0)
	clk.advance(2 * time.Second) // a:1 expires
	g2, err := s.Acquire(ctx, key, "b:2", 0)
	if err != nil {
		t.Fatalf("successor acquire: %v", err)
	}
	// The zombie's beat is fenced; the successor's is accepted.
	if err := s.Beat(ctx, key, g1.Token, Beat{Seq: 99}); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie beat = %v, want ErrFenced", err)
	}
	if err := s.Beat(ctx, key, g2.Token, Beat{Seq: 1}); err != nil {
		t.Fatalf("successor beat: %v", err)
	}
	// The zombie's release must not free the successor's lease.
	if err := s.Release(ctx, key, g1.Token); err != nil {
		t.Fatalf("stale release should be a no-op, got %v", err)
	}
	if _, err := s.Acquire(ctx, key, "c:3", 0); !errors.Is(err, ErrHeld) {
		t.Fatalf("acquire after stale release = %v, want ErrHeld (successor still owns it)", err)
	}
}

func TestBeatRevivesExpiredButUnsupersededLease(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()
	key := testKey()

	g, _ := s.Acquire(ctx, key, "a:1", 0)
	clk.advance(5 * time.Second) // expired, but nobody took over
	if err := s.Beat(ctx, key, g.Token, Beat{Seq: 1}); err != nil {
		t.Fatalf("beat after silent gap: %v", err)
	}
	if _, err := s.Acquire(ctx, key, "b:2", 0); !errors.Is(err, ErrHeld) {
		t.Fatalf("acquire after revival = %v, want ErrHeld", err)
	}
}

func TestUnknownAndInvalid(t *testing.T) {
	s := NewService(time.Second)
	ctx := context.Background()
	key := testKey()
	if err := s.Beat(ctx, key, 1, Beat{}); !errors.Is(err, ErrUnknown) {
		t.Fatalf("beat on unknown lease = %v, want ErrUnknown", err)
	}
	if err := s.Release(ctx, key, 1); !errors.Is(err, ErrUnknown) {
		t.Fatalf("release on unknown lease = %v, want ErrUnknown", err)
	}
	// A beat with a token the service never minted is unknown, not
	// fenced — fenced means superseded, and nothing superseded it.
	s.Acquire(ctx, key, "a:1", 0)
	if err := s.Beat(ctx, key, 99, Beat{}); !errors.Is(err, ErrUnknown) {
		t.Fatalf("beat with never-minted token = %v, want ErrUnknown", err)
	}
	bad := Key{Campaign: "", Shard: 0, Of: 1}
	if _, err := s.Acquire(ctx, bad, "x", 0); err == nil {
		t.Fatal("acquire with empty campaign hash should fail")
	}
	bad = Key{Campaign: "h", Shard: 4, Of: 4}
	if _, err := s.Acquire(ctx, bad, "x", 0); err == nil {
		t.Fatal("acquire with shard >= of should fail")
	}
}

func TestViewReportsProgressAndExpiry(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()
	key := testKey()

	if _, ok, _ := s.View(ctx, key); ok {
		t.Fatal("view of unacquired lease should report !ok")
	}
	g, _ := s.Acquire(ctx, key, "a:1", 0)
	s.Beat(ctx, key, g.Token, Beat{Seq: 3, Done: 2, Total: 7})
	v, ok, err := s.View(ctx, key)
	if err != nil || !ok {
		t.Fatalf("view: ok=%v err=%v", ok, err)
	}
	if !v.Held || v.Token != g.Token || v.Seq != 3 || v.Done != 2 || v.Total != 7 || v.Owner != "a:1" {
		t.Fatalf("view = %+v", v)
	}
	clk.advance(3 * time.Second)
	v, _, _ = s.View(ctx, key)
	if v.Held {
		t.Fatalf("view after expiry still Held: %+v", v)
	}
	if v.SinceAdvance != 3*time.Second {
		t.Fatalf("SinceAdvance = %v, want 3s", v.SinceAdvance)
	}
}

// The scheduler's input signal must survive handovers: done/total
// reported by a predecessor stays visible through a fencing-token
// change, and a successor resuming from the checkpoint can only move
// it forward. A reset here would make every reassignment look like
// lost work and send the placement scheduler chasing phantoms.
func TestProgressSurvivesFencingHandover(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()
	key := testKey()

	g1, _ := s.Acquire(ctx, key, "a:1", 0)
	s.Beat(ctx, key, g1.Token, Beat{Seq: 3, Done: 5, Total: 9})
	clk.advance(2 * time.Second) // a:1 dies silently; lease ages out

	g2, err := s.Acquire(ctx, key, "b:2", 0)
	if err != nil {
		t.Fatalf("successor acquire: %v", err)
	}
	if g2.Token != g1.Token+1 {
		t.Fatalf("successor token = %d, want %d", g2.Token, g1.Token+1)
	}
	// Between the handover and the successor's first beat, the view
	// still carries the predecessor's progress under the new token.
	v, ok, _ := s.View(ctx, key)
	if !ok || v.Token != g2.Token || v.Done != 5 || v.Total != 9 {
		t.Fatalf("view across handover = %+v, want done 5/9 under token %d", v, g2.Token)
	}
	// A stale beat (raced from before the handover, or a replayed
	// lower count) must not drag progress backwards...
	clk.advance(900 * time.Millisecond)
	s.Beat(ctx, key, g2.Token, Beat{Seq: 1, Done: 3, Total: 9})
	if v, _, _ := s.View(ctx, key); v.Done != 5 {
		t.Fatalf("done regressed to %d after a lower beat, want 5", v.Done)
	}
	// The successor's Seq restarts below the predecessor's 3, yet Seq 1
	// is an advance under the new token: the lease stays Held past a
	// TTL after the acquisition.
	clk.advance(900 * time.Millisecond)
	if v, _, _ := s.View(ctx, key); !v.Held {
		t.Fatalf("successor beating Seq 1 under token %d not Held: %+v", g2.Token, v)
	}
	// ...while the successor's real progress advances it.
	s.Beat(ctx, key, g2.Token, Beat{Seq: 2, Done: 7, Total: 9})
	if v, _, _ := s.View(ctx, key); v.Done != 7 || v.Total != 9 {
		t.Fatalf("view after successor progress = %+v, want 7/9", v)
	}
}

// TestAcquireResetsStaleProgress: done/total survive a handover (see
// above) but not a fresh run against a long-lived service — a lease
// left unheld far past its TTL acquires with zero progress, so a
// re-run of the same spec in a fresh shard directory does not start
// near-complete. The fencing token is never reset: on-disk fence
// files depend on its monotonicity.
func TestAcquireResetsStaleProgress(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()
	key := testKey()

	g1, _ := s.Acquire(ctx, key, "a:1", 0)
	s.Beat(ctx, key, g1.Token, Beat{Seq: 3, Done: 5, Total: 9})
	s.Release(ctx, key, g1.Token)

	clk.advance(time.Hour)
	g2, err := s.Acquire(ctx, key, "b:2", 0)
	if err != nil {
		t.Fatalf("fresh-run acquire: %v", err)
	}
	if g2.Token != g1.Token+1 {
		t.Fatalf("token = %d, want %d (tokens stay monotone)", g2.Token, g1.Token+1)
	}
	v, ok, _ := s.View(ctx, key)
	if !ok || v.Done != 0 || v.Total != 0 {
		t.Fatalf("stale progress leaked into a fresh acquisition: %+v, want 0/0", v)
	}
	// Just past TTL is a handover, not a fresh run: progress survives.
	s.Beat(ctx, key, g2.Token, Beat{Seq: 2, Done: 4, Total: 9})
	clk.advance(2 * time.Second)
	if _, err := s.Acquire(ctx, key, "c:3", 0); err != nil {
		t.Fatalf("successor acquire: %v", err)
	}
	if v, _, _ := s.View(ctx, key); v.Done != 4 || v.Total != 9 {
		t.Fatalf("handover lost progress: %+v, want 4/9", v)
	}
}

// TestRaiseTokenFloor: a floor lifts the key's token sequence without
// granting the lease, and a floor at or below the current token is a
// no-op — tokens never move backwards.
func TestRaiseTokenFloor(t *testing.T) {
	ctx := context.Background()
	s := NewService(time.Second)
	k := testKey()
	if err := s.RaiseTokenFloor(k, 5); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.View(ctx, k); !ok || v.Held || v.Token != 5 {
		t.Fatalf("after floor 5: %+v ok=%v, want unheld token 5", v, ok)
	}
	g, err := s.Acquire(ctx, k, "w", 0)
	if err != nil || g.Token != 6 {
		t.Fatalf("acquire above floor = %+v, %v; want token 6", g, err)
	}
	if err := s.RaiseTokenFloor(k, 2); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.View(ctx, k); !v.Held || v.Token != 6 {
		t.Fatalf("a lower floor disturbed the lease: %+v", v)
	}
	if err := s.RaiseTokenFloor(Key{}, 1); err == nil {
		t.Fatal("invalid key accepted")
	}
}
