package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/durable"
	"rowhammer/internal/leasesvc"
)

// maxTick caps the scheduler tick and the workers' registry heartbeat
// — the two polls placement latency is made of — so a long lease TTL
// slows failure detection, never the handoff of work.
const maxTick = 500 * time.Millisecond

// Config configures a Coordinate run.
type Config struct {
	// Dir is the shard directory (created if absent).
	Dir string
	// Spec is the resolved campaign spec all shards execute.
	Spec campaign.Spec
	// Shards is the partition width N (>= 1).
	Shards int
	// Fleet is the lease service the campaign is placed through
	// (required). The coordinator schedules shards onto workers
	// registered with its worker registry (rhfleet -worker processes,
	// or in-process RunWorker loops), watches their shard leases for
	// liveness and throughput, and rebalances queued shards off slow
	// workers. Local coordination is the degenerate case: the
	// coordinator hosts the service and spawns the workers itself.
	// The service's expiry is the only liveness judge: a shard whose
	// lease lapses — its holder died, or its heartbeat Seq froze for
	// a TTL — is reassigned. The scheduler's own time bounds derive
	// from the service's default lease TTL.
	Fleet *leasesvc.Service
	// Poll is the scheduler tick. Default a quarter of the Fleet's
	// default lease TTL, at most 500ms.
	Poll time.Duration
	// MaxRespawns bounds reassignments per shard; exceeding it aborts
	// the campaign rather than reassigning a crash-looping shard
	// forever. Default 3.
	MaxRespawns int
	// Progress, when non-nil, receives campaign-wide done/total as
	// observed through the shard leases (done is monotone because
	// lease progress survives fencing handovers).
	Progress func(done, total int)
	// Drain, when delivered or closed, stops the run gracefully:
	// placements are withdrawn (their workers drain them), nothing is
	// reassigned, and Coordinate returns campaign.ErrDrained if the
	// grid is incomplete.
	Drain <-chan struct{}
	// Log, when non-nil, receives one-line progress messages.
	Log func(format string, args ...any)
}

// Coordinate supervises an N-way sharded campaign run to completion:
// place an attempt per incomplete shard onto a registered fleet
// worker, retire attempts whose shard lease lapses, reassign a dead
// shard's remaining jobs to a fresh attempt (bounded by MaxRespawns),
// and finally merge the shard checkpoints into one result
// byte-identical to a single-process run.
//
// A shard counts as complete when every job it owns has a checkpoint
// record — failed records included, matching single-process semantics
// where a job that exhausts its retries is recorded, not respawned.
// Completion is always judged from the checkpoints on disk, never
// from worker exit codes, so a coordinator that is itself killed and
// restarted picks up exactly where the directory says things stand.
func Coordinate(ctx context.Context, cfg Config) (*campaign.Result, *MergeReport, error) {
	spec, err := cfg.Spec.Normalize()
	if err != nil {
		return nil, nil, err
	}
	if cfg.Shards < 1 {
		return nil, nil, fmt.Errorf("shard: Config.Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Fleet == nil {
		return nil, nil, fmt.Errorf("shard: Config.Fleet is required")
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ttl := cfg.Fleet.DefaultLeaseTTL()
	poll := cfg.Poll
	if poll <= 0 {
		poll = min(ttl/4, maxTick)
	}
	maxRespawns := cfg.MaxRespawns
	if maxRespawns <= 0 {
		maxRespawns = 3
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	coordLock, err := durable.AcquireLock(CoordinatorLockPath(cfg.Dir))
	if err != nil {
		return nil, nil, fmt.Errorf("shard: another coordinator owns %s: %w", cfg.Dir, err)
	}
	defer coordLock.Release()

	hash := spec.IdentityHash()
	parts := Partition(cfg.Shards)
	exec := newFleetExecutor(cfg.Fleet, cfg.Dir, spec, parts, ttl, logf, cfg.Progress)
	defer exec.Close()

	gens := make(map[int]int, cfg.Shards) // shard index → current generation

	// Judge every shard from disk before starting anything: a restarted
	// coordinator skips shards whose checkpoints are already complete,
	// and the service's token sequences are lifted above each shard's
	// fence file — a fresh service mints from 1, and a shard handed
	// over before the restart would refuse every lower token forever.
	for _, a := range parts {
		fence, err := ReadFence(FencePath(cfg.Dir, a))
		if err != nil {
			return nil, nil, err
		}
		if err := cfg.Fleet.RaiseTokenFloor(leasesvc.Key{Campaign: hash, Shard: a.Index, Of: a.Of}, fence); err != nil {
			return nil, nil, err
		}
		missing, haveCkpt, err := shardMissing(spec, a, CheckpointPath(cfg.Dir, a))
		if err != nil {
			return nil, nil, err
		}
		if haveCkpt && len(missing) == 0 {
			continue
		}
		if haveCkpt {
			logf("shard %s: resuming, %d job(s) remaining", a, len(missing))
		}
		exec.Start(a, 0)
	}

	// retire judges a finished attempt from its checkpoint: complete,
	// drained, or reassigned to a fresh generation.
	draining := false
	retire := func(at *fleetAttempt) error {
		idx := at.a.Index
		missing, haveCkpt, err := shardMissing(spec, at.a, CheckpointPath(cfg.Dir, at.a))
		if err != nil {
			return err
		}
		if haveCkpt && len(missing) == 0 {
			if at.err != nil {
				// Every job has a record despite the non-clean exit:
				// the worker died after its last record landed, or
				// some jobs are recorded as failed.
				logf("shard %s: complete (worker exited: %v)", at.a, at.err)
			} else {
				logf("shard %s: complete", at.a)
			}
			return nil
		}
		if draining {
			logf("shard %s: drained with %d job(s) remaining", at.a, len(missing))
			return nil
		}
		gens[idx]++
		if gens[idx] > maxRespawns {
			// Wrap the last attempt's error so callers can react to
			// the cause — rhserved falls back to in-process workers
			// when it is ErrNoWorkers.
			return fmt.Errorf(
				"shard %s: gave up after %d reassignment(s); %d job(s) still missing (last worker: %w)",
				at.a, maxRespawns, len(missing), at.err)
		}
		logf("shard %s: worker gen %d died with %d job(s) remaining (%v); reassigning to gen %d",
			at.a, at.gen, len(missing), at.err, gens[idx])
		exec.Start(at.a, gens[idx])
		return nil
	}

	// A dead or frozen worker surfaces as a lapsed lease, which Tick
	// retires; the attempts Tick and Drain retire are judged in the
	// same iteration.
	drain := cfg.Drain
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for exec.Active() > 0 {
		var retired []*fleetAttempt
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-drain:
			// A closed channel is always ready: receive it once, or the
			// loop spins until every started shard has drained.
			drain = nil
			draining = true
			logf("coordinator: draining %d active shard(s)", exec.Active())
			for _, a := range parts {
				if at := exec.Drain(a); at != nil {
					retired = append(retired, at)
				}
			}
		case <-ticker.C:
			retired = exec.Tick()
		}
		for _, at := range retired {
			if err := retire(at); err != nil {
				return nil, nil, err
			}
		}
	}

	// A shard drained before any worker started it has no checkpoint;
	// the merge counts its jobs as missing.
	var paths []string
	for _, p := range CheckpointPaths(cfg.Dir, cfg.Shards) {
		if _, err := os.Stat(p); err == nil {
			paths = append(paths, p)
		}
	}
	res, rep, err := MergeShards(spec, paths)
	if err != nil {
		return nil, nil, err
	}
	if !rep.Complete() {
		if draining {
			return res, rep, campaign.ErrDrained
		}
		return res, rep, fmt.Errorf("shard: merge incomplete: %d job(s) missing", len(rep.Missing))
	}
	return res, rep, nil
}

// shardMissing reports the shard's jobs that have no checkpoint
// record at all (failed records count as done — they are results),
// plus whether the checkpoint file exists yet.
func shardMissing(spec campaign.Spec, a Assignment, ckptPath string) (missing []string, haveCkpt bool, err error) {
	recs := map[string]campaign.Record{}
	if _, statErr := os.Stat(ckptPath); statErr == nil {
		haveCkpt = true
		rep, lerr := campaign.LoadCheckpointReport(ckptPath, campaign.ResumeOptions{ExpectSpec: &spec})
		if lerr != nil {
			return nil, true, fmt.Errorf("shard %s: %s: %w", a, ckptPath, lerr)
		}
		if h := rep.Header; h != nil {
			if err := h.CheckShard(a.Index, a.Of); err != nil {
				return nil, true, fmt.Errorf("shard %s: %s: %w", a, ckptPath, err)
			}
		}
		recs = rep.Records
	} else if !errors.Is(statErr, os.ErrNotExist) {
		return nil, false, statErr
	}
	for _, j := range a.Jobs(spec) {
		if _, ok := recs[j.Key()]; !ok {
			missing = append(missing, j.Key())
		}
	}
	return missing, haveCkpt, nil
}
