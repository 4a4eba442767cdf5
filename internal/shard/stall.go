package shard

import (
	"sync"
	"time"
)

// Probe is a coordinator's view of one shard lease, as read from the
// lease service (ServiceProbe).
type Probe struct {
	// Held reports an unexpired holder. False means dead, released or
	// never started — either way, nobody owns the shard.
	Held bool
	// Seq, Done and Total mirror the holder's last heartbeat.
	Seq   uint64
	Done  int
	Total int
	// Age is the service-clock time since Seq last advanced.
	Age time.Duration
	// Token is the lease's fencing token. A token change means a
	// different holder, so the stall tracker must not compare
	// heartbeat Seqs across it — every acquisition restarts Seq at
	// zero.
	Token uint64
}

// StallTracker judges shard staleness by heartbeat Seq monotonicity
// on the *observer's* clock. The failure it exists to prevent: a
// worker on a host with a skewed clock must never look stalled while
// its heartbeats keep arriving. The tracker remembers, per shard, the
// last Seq it saw and when *it* saw it change; a holder is stalled
// only when its Seq has been frozen for longer than TTL of the
// observer's own time.
type StallTracker struct {
	// Now is the observer clock; time.Now when nil. A test seam.
	Now func() time.Time

	mu   sync.Mutex
	seen map[int]stallSeen
}

type stallSeen struct {
	token uint64
	seq   uint64
	at    time.Time
}

func (t *StallTracker) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

// Stalled reports whether shard idx's probe shows a holder that is
// alive but frozen for longer than ttl.
func (t *StallTracker) Stalled(idx int, p Probe, ttl time.Duration) bool {
	if !p.Held || ttl <= 0 {
		t.Forget(idx)
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seen == nil {
		t.seen = map[int]stallSeen{}
	}
	now := t.now()
	s, ok := t.seen[idx]
	// A fencing-token change is a new holder: its Seq restarts at
	// zero, so comparing it against the predecessor's high-water Seq
	// would brand a freshly-acquired successor as frozen. Reset the
	// clock instead.
	if !ok || p.Token != s.token || p.Seq > s.seq {
		t.seen[idx] = stallSeen{token: p.Token, seq: p.Seq, at: now}
		return false
	}
	return now.Sub(s.at) > ttl
}

// Forget drops shard idx's history — called when its attempt ends,
// so the next generation starts with a fresh stall clock.
func (t *StallTracker) Forget(idx int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.seen, idx)
}
