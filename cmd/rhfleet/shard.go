package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	rh "rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/durable"
	"rowhammer/internal/inject"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/server"
	"rowhammer/internal/shard"
)

// The distributed modes. One campaign splits into N disjoint shards
// (internal/shard), each with its own v2 checkpoint and fence file
// under -shard-dir and its own fenced lease in a lease service.
// `rhfleet -coordinate N` self-hosts that service, spawns N
// `rhfleet -worker` processes against it, places the shards onto them
// — reassigning the shards of a worker whose lease lapses — and merges;
// `rhfleet -worker -lease-url` joins a coordinator's (or rhserved's)
// fleet from any host that can reach the URL and the shared
// -shard-dir; `rhfleet -merge-shards` folds the shard checkpoints into
// a summary or artifact byte-identical to a single-process run.

// leaseClient builds a lease/registry client for -worker mode,
// wrapping its transport with a deterministic network chaos profile
// when one is armed (the -net-chaos flag, or a per-shard drill seam).
// The same client speaks both halves of the placement layer: fenced
// shard leases and the worker registry.
func leaseClient(baseURL, chaosSpec string, seed uint64, label string) (*leasesvc.Client, error) {
	c := &leasesvc.Client{BaseURL: strings.TrimRight(baseURL, "/"), Seed: seed}
	if chaosSpec != "" && chaosSpec != "none" {
		p, err := inject.ParseNet(chaosSpec)
		if err != nil {
			return nil, err
		}
		if p.Active() {
			c.HTTP = &http.Client{Transport: inject.WrapTransport(nil, p, label)}
			fmt.Fprintf(os.Stderr, "rhfleet: %s: network chaos active on lease client: %s\n", label, p)
		}
	}
	return c, nil
}

// fleetWorkerCfg parameterizes a -worker process: a fleet member that
// registers with the placement layer at -lease-url and pulls shard
// placements from the scheduler.
type fleetWorkerCfg struct {
	id       string
	slots    int
	leaseURL string
	leaseTTL time.Duration
	netChaos string
	profile  *inject.Profile
	seed     uint64
	quiet    bool
	timeout  time.Duration
	drainTO  time.Duration
}

// runFleetWorker is the -worker mode: register with the worker
// registry, heartbeat, and execute whatever placements the scheduler
// assigns through server.RunPlacement — the placement runner rhserved's
// in-process workers share — each under the shard's fenced lease.
func runFleetWorker(cfg fleetWorkerCfg) int {
	id := cfg.id
	if id == "" {
		id = leasesvc.DefaultOwner()
	}
	client, err := leaseClient(cfg.leaseURL, cfg.netChaos, cfg.seed, "worker "+id)
	if err != nil {
		fatalUsage(err)
	}
	base := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		base, cancel = context.WithTimeout(base, cfg.timeout)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	drainCh := armDrainSignals(ctx, cancel, cfg.drainTO)
	logf := func(f string, args ...any) { fmt.Fprintf(os.Stderr, "rhfleet: "+f+"\n", args...) }
	var wrap func(campaign.Runner) campaign.Runner
	if cfg.profile != nil {
		wrap = func(r campaign.Runner) campaign.Runner { return inject.WrapRunner(r, cfg.profile) }
	}
	seams := newDrillSeams()

	run := func(ctx context.Context, p leasesvc.Placement, drain <-chan struct{}) error {
		a := shard.Assignment{Index: p.Shard, Of: p.Of}
		rc := shard.RunConfig{Lease: client, LeaseTTL: cfg.leaseTTL, Owner: id, Log: logf}
		failOff, chaos := seams.take(ctx, client, p)
		if failOff != "" {
			rc.ArmCheckpoint = func(cw *campaign.CheckpointWriter) { armFailpoint(cw, failOff) }
		}
		if chaos != "" {
			c, err := leaseClient(cfg.leaseURL, chaos, cfg.seed, fmt.Sprintf("shard-%d", a.Index))
			if err != nil {
				return err
			}
			rc.Lease = c
		}
		if !cfg.quiet {
			start := time.Now()
			rc.Progress = func(done, total int, rec rh.CampaignRecord) {
				status := "ok"
				if rec.Err != "" {
					status = "FAILED: " + rec.Err
				}
				fmt.Fprintf(os.Stderr, "rhfleet: shard %s [%d/%d] %-24s %s (%.1fs elapsed)\n",
					a, done, total, rec.Key, status, time.Since(start).Seconds())
			}
		}
		return server.RunPlacement(ctx, p, drain, rc, wrap)
	}

	err = shard.RunWorker(ctx, shard.WorkerConfig{
		Registry: client,
		ID:       id,
		Slots:    cfg.slots,
		TTL:      cfg.leaseTTL,
		Run:      run,
		Drain:    drainCh,
		Log:      logf,
	})
	switch {
	case errors.Is(err, campaign.ErrDrained):
		fmt.Fprintf(os.Stderr, "rhfleet: worker %s drained; placements checkpointed — the scheduler reassigns what remains\n", id)
		return 0
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "rhfleet: worker %s interrupted (%v)\n", id, err)
		return 3
	default:
		fmt.Fprintf(os.Stderr, "rhfleet: worker %s: %v\n", id, err)
		return 1
	}
}

// drillSeams are a worker's crash and network-chaos drill seams:
// RHFLEET_SHARD_FAILPOINT="i:off" SIGKILLs the worker after off bytes
// of shard i's checkpoint, and RHFLEET_SHARD_NETCHAOS="i:profile" runs
// shard i's lease traffic under a network chaos profile — both on
// shard i's generation 0 only. A coordinator hands the variables to
// its first-generation workers alone; a worker arms each seam at most
// once, and only while shard i's lease has never been granted, so a
// reassigned shard runs clean wherever it lands.
type drillSeams struct {
	mu                    sync.Mutex
	failShard, chaosShard int
	failOff, chaosProfile string
}

func newDrillSeams() *drillSeams {
	d := &drillSeams{}
	d.failShard, d.failOff = parseShardSeam("RHFLEET_SHARD_FAILPOINT")
	d.chaosShard, d.chaosProfile = parseShardSeam("RHFLEET_SHARD_NETCHAOS")
	return d
}

// take returns the failpoint offset and chaos profile to arm for
// placement p ("" for none), disarming whatever it returns.
func (d *drillSeams) take(ctx context.Context, svc leasesvc.API, p leasesvc.Placement) (failOff, chaos string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p.Shard != d.failShard && p.Shard != d.chaosShard {
		return "", ""
	}
	if v, ok, err := svc.View(ctx, p.LeaseKey()); err != nil || (ok && v.Token > 0) {
		return "", ""
	}
	if p.Shard == d.failShard {
		failOff, d.failOff, d.failShard = d.failOff, "", -1
	}
	if p.Shard == d.chaosShard {
		chaos, d.chaosProfile, d.chaosShard = d.chaosProfile, "", -1
	}
	return failOff, chaos
}

// parseShardSeam reads a drill variable of the form "i:value".
func parseShardSeam(name string) (shardIdx int, value string) {
	i, rest, ok := strings.Cut(os.Getenv(name), ":")
	if !ok {
		return -1, ""
	}
	idx, err := strconv.Atoi(i)
	if err != nil || idx < 0 || rest == "" {
		return -1, ""
	}
	return idx, rest
}

// coordinatorConfig parameterizes a -coordinate N run.
type coordinatorConfig struct {
	dir         string
	shards      int
	wire        server.Spec
	rsv         server.Resolved
	faults      string
	quiet       bool
	timeout     time.Duration
	drainTO     time.Duration
	leaseTTL    time.Duration
	maxRespawns int
	leaseListen string
	format      string
	sumOut      string
	artOut      string
}

// runCoordinator is the -coordinate N mode: persist the wire spec,
// self-host the lease service, spawn N local -worker processes against
// it, place and supervise the shards, and merge.
func runCoordinator(cfg coordinatorConfig) int {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatal(err)
	}
	// Persist the wire spec first: workers resolve each placement's
	// campaign from <dir>/spec.json, and any later merge or
	// coordinator restart reads the campaign from the directory itself.
	wb, err := json.MarshalIndent(cfg.wire, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := durable.AtomicWriteFile(shard.SpecPath(cfg.dir), append(wb, '\n'), 0o644); err != nil {
		fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	base := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		base, cancel = context.WithTimeout(base, cfg.timeout)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	drainCh := armDrainSignals(ctx, cancel, cfg.drainTO)
	logf := func(f string, args ...any) { fmt.Fprintf(os.Stderr, "rhfleet: "+f+"\n", args...) }

	svc := leasesvc.NewService(cfg.leaseTTL)
	ln, err := net.Listen("tcp", cfg.leaseListen)
	if err != nil {
		fatal(fmt.Errorf("lease-listen: %w", err))
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 120 * time.Second}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String()
	logf("lease service listening on %s", url)

	args := []string{"-worker", "-slots", "1", "-lease-url", url, "-lease-ttl", cfg.leaseTTL.String()}
	if cfg.quiet {
		args = append(args, "-quiet")
	}
	if cfg.faults != "" {
		args = append(args, "-fault-profile", cfg.faults)
	}
	workers := &localFleet{svc: svc, exe: exe, args: args, pace: cfg.leaseTTL / 4, drain: drainCh, logf: logf}
	workers.start(cfg.shards)
	defer workers.close()

	start := time.Now()
	res, rep, err := shard.Coordinate(ctx, shard.Config{
		Dir:         cfg.dir,
		Spec:        cfg.rsv.Spec,
		Shards:      cfg.shards,
		Fleet:       svc,
		MaxRespawns: cfg.maxRespawns,
		Drain:       drainCh,
		Log:         logf,
	})
	if res != nil && rep != nil {
		logf("coordinated %d shard(s): %d/%d job(s) recorded, %d failed in %v",
			cfg.shards, rep.Records, res.Total, rep.Failed, time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		switch {
		case errors.Is(err, rh.ErrCampaignDrained):
			logf("drained; rerun `rhfleet -coordinate %d -shard-dir %s` to finish", cfg.shards, cfg.dir)
			return 3
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			logf("interrupted (%v); rerun -coordinate to resume", err)
			return 3
		default:
			logf("%v", err)
			return 1
		}
	}
	return emitMerged(cfg.rsv, res, rep, cfg.format, cfg.sumOut, cfg.artOut)
}

// localFleet is the fleet a coordinator spawns for itself: one
// `rhfleet -worker -slots 1` process per shard, registered with the
// coordinator's own lease service and tied to the coordinator by
// PDEATHSIG. A worker that exits is evicted from the service the
// moment its Wait returns — registration ended, shard leases released
// — so the scheduler reassigns its shards on its next tick instead of
// waiting out a TTL; then it is respawned, unless the coordinator is
// draining or done.
type localFleet struct {
	svc   *leasesvc.Service
	exe   string
	args  []string      // worker flags shared by every process
	pace  time.Duration // minimum wait before respawning a worker that died young
	drain <-chan struct{}
	logf  func(format string, args ...any)

	wg     sync.WaitGroup
	done   chan struct{} // closed by close
	mu     sync.Mutex
	procs  map[string]*os.Process
	closed bool
}

// start spawns workers local-0 … local-(n-1).
func (f *localFleet) start(n int) {
	f.procs = make(map[string]*os.Process, n)
	f.done = make(chan struct{})
	for i := 0; i < n; i++ {
		f.wg.Add(1)
		go f.supervise(fmt.Sprintf("local-%d", i))
	}
}

// supervise runs worker id's spawn generations until the fleet stops.
func (f *localFleet) supervise(id string) {
	defer f.wg.Done()
	for gen := 0; ; gen++ {
		cmd := exec.Command(f.exe, slices.Concat(f.args, []string{"-worker-id", id})...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		cmd.Env = workerEnv(gen)
		cmd.SysProcAttr = workerSysProcAttr()
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		err := cmd.Start()
		if err == nil {
			f.procs[id] = cmd.Process
		}
		f.mu.Unlock()
		if err != nil {
			f.logf("worker %s: spawn: %v", id, err)
			return
		}
		f.logf("spawned worker %s (pid %d)", id, cmd.Process.Pid)
		born := time.Now()
		if !f.reap(id, cmd.Process.Pid, cmd.Wait()) {
			return
		}
		// Pace a worker that dies young instead of crash-looping hot.
		if time.Since(born) < 4*f.pace {
			select {
			case <-time.After(f.pace):
			case <-f.drain:
				return
			case <-f.done:
				return
			}
		}
	}
}

// reap is the death handler, run the moment a worker's Wait returns:
// evict it from the lease service and report whether to respawn it.
func (f *localFleet) reap(id string, pid int, err error) bool {
	f.mu.Lock()
	delete(f.procs, id)
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return false
	}
	f.svc.EvictWorker(id)
	if err == nil {
		err = errors.New("exit status 0")
	}
	select {
	case <-f.drain:
		f.logf("worker %s (pid %d) exited: %v", id, pid, err)
		return false
	default:
		f.logf("worker %s (pid %d) exited: %v; respawning", id, pid, err)
		return true
	}
}

// close kills every worker and waits for the supervisors. Workers are
// idle by the time Coordinate returns cleanly; on an abort, their
// checkpoints are crash-safe anyway.
func (f *localFleet) close() {
	f.mu.Lock()
	f.closed = true
	close(f.done)
	for _, p := range f.procs {
		p.Kill()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// workerEnv builds a spawned worker's environment: the coordinator's
// own drill variables are stripped — a coordinator under drill must
// not arm every worker — except that first-generation workers inherit
// the per-shard seams (see drillSeams).
func workerEnv(gen int) []string {
	env := make([]string, 0, len(os.Environ()))
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		switch name {
		case "RHFLEET_FAILPOINT":
			continue
		case "RHFLEET_SHARD_FAILPOINT", "RHFLEET_SHARD_NETCHAOS":
			if gen > 0 {
				continue
			}
		}
		env = append(env, kv)
	}
	return env
}

// runMergeShards is the -merge-shards mode: fold whatever shard
// checkpoints exist under dir into the campaign deliverable. Partial
// directories merge too (exit 3, coverage accounted in the summary);
// a checkpoint from a different campaign is a named, typed refusal.
func runMergeShards(dir string, rsv server.Resolved, format, sumOut, artOut string) int {
	paths, err := filepath.Glob(shard.CheckpointGlob(dir))
	if err != nil {
		fatal(err)
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("no shard checkpoints (%s) found", shard.CheckpointGlob(dir)))
	}
	res, rep, err := shard.MergeShards(rsv.Spec, paths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhfleet: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "rhfleet: merged %d shard checkpoint(s): %d record(s), %d superseded, %d failed, %d missing\n",
		rep.Files, rep.Records, rep.Duplicates, rep.Failed, len(rep.Missing))
	return emitMerged(rsv, res, rep, format, sumOut, artOut)
}

// emitMerged prints and publishes a merged result exactly as the
// single-process path would: the experiment artifact (complete,
// failure-free campaigns only) or the fleet summary, published
// atomically when an output path is set. Exit codes match the
// single-process conventions: 0 complete, 3 incomplete (resumable),
// 4 quarantined coverage loss, 1 failed jobs.
func emitMerged(rsv server.Resolved, res *campaign.Result, rep *shard.MergeReport, format, sumOut, artOut string) int {
	if rsv.Exp != nil {
		if !rep.Complete() || rep.Failed > 0 {
			fmt.Fprintf(os.Stderr, "rhfleet: experiment artifact not published: %d job(s) missing, %d failed\n",
				len(rep.Missing), rep.Failed)
			if !rep.Complete() {
				return 3
			}
			return 1
		}
		if err := publishArtifact(*rsv.Exp, res, format, artOut); err != nil {
			fatal(err)
		}
		return 0
	}
	summary, err := campaign.Aggregate(res).MarshalIndent()
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(summary))
	if sumOut != "" && rep.Complete() {
		if err := durable.AtomicWriteFile(sumOut, append(summary, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	switch {
	case !rep.Complete():
		return 3
	case quarantinedCount(res) > 0:
		return 4
	case rep.Failed > 0:
		return 1
	}
	return 0
}

func quarantinedCount(res *campaign.Result) int {
	n := 0
	for _, rec := range res.Records {
		if rec.Quarantined {
			n++
		}
	}
	return n
}
