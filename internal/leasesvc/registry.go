package leasesvc

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// The worker registry: the placement layer's membership half. A shard
// worker registers its capacity, heartbeats on a Seq-monotonic clock
// (the exact staleness discipline leases use), and each heartbeat
// answer carries the worker's current shard assignments — the pull
// channel through which a scheduler (internal/shard's fleet
// coordinator) hands out work. Registration is fenced like a lease:
// re-registering an ID mints the next token and supersedes the old
// registration, so a restarted worker takes its identity back
// immediately and the zombie's beats are refused with ErrFenced.
//
// Assignments are scheduler-side state: Assign/Unassign/Workers are
// in-process methods on *Service (the scheduler is colocated with the
// registry — rhserved's manager, or a coordinator self-hosting
// -lease-listen). Correctness never rests on the registry: a worker
// only *runs* a placement by acquiring that shard's fenced lease, so
// a stale assignment delivered to two workers costs one of them a
// refused acquire, never a duplicate record.

// Placement is one shard assignment as delivered to a worker: which
// campaign (identity hash — the worker verifies it against the spec
// it resolves), where the shard directory lives on the shared
// filesystem, and which slice of the partition to run.
type Placement struct {
	Campaign string `json:"campaign"`
	Dir      string `json:"dir"`
	Shard    int    `json:"shard"`
	Of       int    `json:"of"`
}

// LeaseKey is the shard lease this placement's runner will acquire.
func (p Placement) LeaseKey() Key {
	return Key{Campaign: p.Campaign, Shard: p.Shard, Of: p.Of}
}

func (p Placement) String() string {
	return fmt.Sprintf("%s/%d-of-%d@%s", p.Campaign, p.Shard, p.Of, p.Dir)
}

// Validate rejects structurally impossible placements.
func (p Placement) Validate() error {
	if err := p.LeaseKey().Validate(); err != nil {
		return err
	}
	if p.Dir == "" {
		return fmt.Errorf("leasesvc: placement %s has empty dir", p.LeaseKey())
	}
	return nil
}

// WorkerView is one registered worker's observable state — what the
// scheduler places against and GET /v1/workers reports.
type WorkerView struct {
	ID    string `json:"id"`
	Owner string `json:"owner,omitempty"`
	// Token is the registration's fencing token.
	Token uint64 `json:"token"`
	// Alive reports a registration whose heartbeat Seq advanced within
	// TTL — the scheduler only places onto live workers.
	Alive bool `json:"alive"`
	// Slots is the worker's declared parallel capacity.
	Slots int    `json:"slots"`
	Seq   uint64 `json:"seq"`
	// SinceAdvance is service-clock time since Seq last advanced.
	SinceAdvance time.Duration `json:"since_advance_ms"`
	TTL          time.Duration `json:"ttl_ms"`
	// Assignments are the placements the worker pulls on its next beat.
	Assignments []Placement `json:"assignments,omitempty"`
}

// RegistryAPI is the worker side of the registry protocol, implemented
// by *Service in process and *Client over HTTP — the same split as the
// lease API, so internal/shard's worker loop is wire-agnostic.
type RegistryAPI interface {
	RegisterWorker(ctx context.Context, id, owner string, slots int, ttl time.Duration) (Grant, error)
	WorkerBeat(ctx context.Context, id string, token, seq uint64) ([]Placement, error)
	DeregisterWorker(ctx context.Context, id string, token uint64) error
}

// workerState is one registration. Like a lease, token only ever
// increases and staleness is judged by Seq monotonicity on the
// service clock.
type workerState struct {
	token       uint64
	registered  bool
	owner       string
	slots       int
	ttl         time.Duration
	seq         uint64
	lastAdvance time.Time
	assignments []Placement
}

// workerExpired reports a frozen heartbeat. Caller holds s.mu.
func (s *Service) workerExpired(w *workerState) bool {
	return s.now().Sub(w.lastAdvance) > w.ttl
}

// gcWorkersLocked drops registrations that have been dead —
// deregistered, or heartbeat-expired — for longer than
// staleStateFactor TTLs. The default worker ID is host:pid, so every
// worker restart mints a new entry; without a sweep a long-lived
// service accumulates corpses without bound and GET /v1/workers lists
// them forever. Deleting an entry restarts its token sequence, which
// is safe here (unlike for leases): the registry is observational, so
// the worst a revenant token collision costs is a stale assignment
// delivered twice, and whichever worker loses the shard lease race
// gets a refused acquire, never a duplicate record. Caller holds s.mu.
func (s *Service) gcWorkersLocked() {
	now := s.now()
	for id, w := range s.workers {
		if w.registered && !s.workerExpired(w) {
			continue
		}
		if now.Sub(w.lastAdvance) > staleStateFactor*w.ttl {
			delete(s.workers, id)
		}
	}
}

// RegisterWorker registers (or re-registers) worker id with slots
// parallel capacity. Re-registration supersedes unconditionally — a
// restarted worker must not wait out its own corpse's TTL — minting
// the next fencing token; the superseded process's beats get
// ErrFenced. Assignments do not carry across registrations: the
// scheduler re-asserts placements against the live token.
func (s *Service) RegisterWorker(_ context.Context, id, owner string, slots int, ttl time.Duration) (Grant, error) {
	if id == "" {
		return Grant{}, fmt.Errorf("leasesvc: worker registration with empty id")
	}
	if slots < 1 {
		slots = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcWorkersLocked()
	if ttl <= 0 {
		ttl = s.ttl
	}
	w := s.workers[id]
	if w == nil {
		w = &workerState{}
		s.workers[id] = w
	}
	w.token++
	w.registered = true
	w.owner = owner
	w.slots = slots
	w.ttl = ttl
	w.seq = 0
	w.assignments = nil
	w.lastAdvance = s.now()
	return Grant{Token: w.token, TTL: ttl}, nil
}

// WorkerBeat records a worker heartbeat and returns the worker's
// current assignments — the scheduler-to-worker pull channel. The
// fencing and staleness semantics mirror lease beats exactly: a stale
// token is ErrFenced (the worker has been superseded and must stop
// claiming this identity), a never-minted token is ErrUnknown, and
// the staleness clock advances only on a Seq the service has not
// seen.
func (s *Service) WorkerBeat(_ context.Context, id string, token, seq uint64) ([]Placement, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[id]
	if w == nil || token > w.token {
		return nil, fmt.Errorf("%w: worker %s", ErrUnknown, id)
	}
	if token < w.token {
		s.stats.FencedRejections++
		return nil, fmt.Errorf("%w: worker %s token %d < %d", ErrFenced, id, token, w.token)
	}
	w.registered = true
	if seq > w.seq {
		w.seq = seq
		w.lastAdvance = s.now()
	}
	s.stats.WorkerBeats++
	out := make([]Placement, len(w.assignments))
	copy(out, w.assignments)
	return out, nil
}

// DeregisterWorker ends a registration. A stale token is a no-op
// success (the zombie must not deregister its successor); a
// never-minted token is ErrUnknown.
func (s *Service) DeregisterWorker(_ context.Context, id string, token uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[id]
	if w == nil || token > w.token {
		return fmt.Errorf("%w: worker %s", ErrUnknown, id)
	}
	if token == w.token && w.registered {
		w.registered = false
		w.assignments = nil
		w.lastAdvance = s.now().Add(-w.ttl - time.Second)
	}
	return nil
}

// Assign hands placement p to worker id; the worker pulls it on its
// next beat. Scheduler-side, in-process only. Assigning a placement
// the worker already holds is a no-op.
func (s *Service) Assign(id string, p Placement) error {
	if err := p.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[id]
	if w == nil || !w.registered {
		return fmt.Errorf("%w: worker %s", ErrUnknown, id)
	}
	for _, have := range w.assignments {
		if have == p {
			return nil
		}
	}
	w.assignments = append(w.assignments, p)
	return nil
}

// Unassign withdraws placement p from worker id — the worker sees it
// gone on its next beat and drains that shard. Unknown workers and
// absent placements are no-op successes: withdrawal is idempotent.
func (s *Service) Unassign(id string, p Placement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[id]
	if w == nil {
		return
	}
	kept := w.assignments[:0]
	for _, have := range w.assignments {
		if have != p {
			kept = append(kept, have)
		}
	}
	w.assignments = kept
}

// Workers snapshots every registration, sorted by ID — the
// scheduler's placement input and the GET /v1/workers body.
func (s *Service) Workers() []WorkerView {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcWorkersLocked()
	out := make([]WorkerView, 0, len(s.workers))
	for id, w := range s.workers {
		v := WorkerView{
			ID: id, Owner: w.owner, Token: w.token,
			Alive: w.registered && !s.workerExpired(w),
			Slots: w.slots, Seq: w.seq,
			SinceAdvance: s.now().Sub(w.lastAdvance),
			TTL:          w.ttl,
		}
		if len(w.assignments) > 0 {
			v.Assignments = make([]Placement, len(w.assignments))
			copy(v.Assignments, w.assignments)
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
