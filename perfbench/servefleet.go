package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	rh "rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/rng"
	"rowhammer/internal/server"
	"rowhammer/internal/shard"
	"rowhammer/internal/store"
)

// serve-fleet runs rhserved in process — store, manager, lease service
// and the HTTP API with the lease routes mounted, on loopback — with
// two fleet workers pulling placements over HTTP as `rhfleet -worker`
// does. A closed loop of two clients each submits a small sharded
// campaign, polls its status until done and fetches the artifact.
// Placement, lease and shard layers set the latency; the fault model
// is a minority of it.
const (
	serveLeaseTTL = time.Second // fixed, short, and printed with the result
	serveClients  = 2
	serveWorkers  = 2
	// serveSlots is each worker's placement capacity: two campaigns of
	// two shards each fit at once, so latency measures placement and
	// publish waits rather than a queue for slots.
	serveSlots   = 2
	serveShards  = 2
	serveModules = 2 // per manufacturer
	servePoll    = 10 * time.Millisecond
	// serveThink bounds a client's pause before its next submit: a
	// seeded uniform draw over one worker-beat period (TTL/4), so
	// submits arrive at every phase of the placement layer's tickers
	// instead of locking onto them.
	serveThink = serveLeaseTTL / 4
	// serveTracedPerSecond sizes the traced run: each client runs
	// seconds×this campaigns twice, untraced then traced.
	serveTracedPerSecond = 0.75
)

var serveMfrs = []string{"A", "B"}

// serveThinkTime is client c's pause before its i-th submit.
func serveThinkTime(seed uint64, client, i int) time.Duration {
	return time.Duration(rng.Hash64(seed, 0x7417c, uint64(client), uint64(i)) % uint64(serveThink))
}

// serveSpec is client c's i-th campaign: a pure function of the seed.
// The seed differs per campaign, so no submit is answered from an
// earlier identical one.
func serveSpec(seed uint64, client, i int) server.Spec {
	return server.Spec{
		Kind:          rh.CampaignHCFirst,
		Mfrs:          serveMfrs,
		ModulesPerMfr: serveModules,
		Seed:          rng.Hash64(seed, 0x5e7e, uint64(client), uint64(i)),
		Scale:         "tiny",
		Shards:        serveShards,
	}
}

// leaseAPI is both halves of the placement protocol, as a fleet worker
// uses them.
type leaseAPI interface {
	leasesvc.API
	leasesvc.RegistryAPI
}

// fleetObs records each campaign's timeline across the client, the
// manager and the workers. Nil when untraced.
type fleetObs struct {
	mu         sync.Mutex
	submitted  map[string]time.Time
	firstRun   map[string]time.Time
	lastRunEnd map[string]time.Time
	done       map[string]time.Time
	runs       map[string]int
	running    map[leasesvc.Key]uint64 // the open shard.run span of a lease
}

func newFleetObs() *fleetObs {
	return &fleetObs{
		submitted: map[string]time.Time{}, firstRun: map[string]time.Time{},
		lastRunEnd: map[string]time.Time{}, done: map[string]time.Time{},
		runs: map[string]int{}, running: map[leasesvc.Key]uint64{},
	}
}

// stamp records the first time id was submitted (done false) or seen
// done by its client.
func (o *fleetObs) stamp(id string, done bool) {
	if o == nil {
		return
	}
	m := o.submitted
	if done {
		m = o.done
	}
	o.mu.Lock()
	if _, ok := m[id]; !ok {
		m[id] = time.Now()
	}
	o.mu.Unlock()
}

func (o *fleetObs) runStart(key leasesvc.Key, spanID uint64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if _, ok := o.firstRun["c"+key.Campaign]; !ok {
		o.firstRun["c"+key.Campaign] = time.Now()
	}
	o.runs["c"+key.Campaign]++
	o.running[key] = spanID
	o.mu.Unlock()
}

func (o *fleetObs) runEnd(key leasesvc.Key) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.lastRunEnd["c"+key.Campaign] = time.Now()
	delete(o.running, key)
	o.mu.Unlock()
}

func (o *fleetObs) span(key leasesvc.Key) uint64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.running[key]
}

// timedLeases wraps the lease client the workers use and times every
// call at the protocol boundary.
type timedLeases struct {
	c   *leasesvc.Client
	tr  *tracer
	obs *fleetObs
}

func (l *timedLeases) call(name, trace string, parent uint64, f func() error) error {
	s := l.tr.start("leasesvc."+name, trace, parent)
	err := f()
	s.end(err)
	l.tr.add("leasesvc."+name+"_count", 1)
	if err != nil {
		l.tr.add("leasesvc."+name+"_errors", 1)
	}
	return err
}

func (l *timedLeases) keyed(name string, key leasesvc.Key, f func() error) error {
	return l.call(name, "c"+key.Campaign, l.obs.span(key), f)
}

func (l *timedLeases) Acquire(ctx context.Context, key leasesvc.Key, owner string, ttl time.Duration) (g leasesvc.Grant, err error) {
	err = l.keyed("acquire", key, func() (e error) { g, e = l.c.Acquire(ctx, key, owner, ttl); return })
	return g, err
}

func (l *timedLeases) Beat(ctx context.Context, key leasesvc.Key, token uint64, b leasesvc.Beat) error {
	return l.keyed("beat", key, func() error { return l.c.Beat(ctx, key, token, b) })
}

func (l *timedLeases) Release(ctx context.Context, key leasesvc.Key, token uint64) error {
	return l.keyed("release", key, func() error { return l.c.Release(ctx, key, token) })
}

func (l *timedLeases) View(ctx context.Context, key leasesvc.Key) (v leasesvc.View, ok bool, err error) {
	err = l.keyed("view", key, func() (e error) { v, ok, e = l.c.View(ctx, key); return })
	return v, ok, err
}

func (l *timedLeases) RegisterWorker(ctx context.Context, id, owner string, slots int, ttl time.Duration) (g leasesvc.Grant, err error) {
	err = l.call("register_worker", "worker/"+id, 0, func() (e error) { g, e = l.c.RegisterWorker(ctx, id, owner, slots, ttl); return })
	return g, err
}

func (l *timedLeases) WorkerBeat(ctx context.Context, id string, token, seq uint64) (ps []leasesvc.Placement, err error) {
	err = l.call("worker_beat", "worker/"+id, 0, func() (e error) { ps, e = l.c.WorkerBeat(ctx, id, token, seq); return })
	return ps, err
}

func (l *timedLeases) DeregisterWorker(ctx context.Context, id string, token uint64) error {
	return l.call("deregister_worker", "worker/"+id, 0, func() error { return l.c.DeregisterWorker(ctx, id, token) })
}

// fleetStack is one in-process rhserved with its fleet workers.
type fleetStack struct {
	st          *store.Store
	mgr         *server.Manager
	srv         *http.Server
	serveErr    chan error
	url         string
	transport   *http.Transport // the workers' lease connections
	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// startStack wires the daemon as rhserved's main does and starts the
// fleet workers; it returns once both are registered and alive.
func startStack(dir string, tr *tracer, obs *fleetObs) (*fleetStack, error) {
	st, _, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	svc := leasesvc.NewService(serveLeaseTTL)
	mgr, err := server.NewManager(st, server.ManagerConfig{MaxActive: serveClients, Fleet: svc})
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		st.Close()
		return nil, err
	}
	api := server.New(mgr, st)
	api.Mount(svc.Register)
	s := &fleetStack{
		st: st, mgr: mgr, serveErr: make(chan error, 1),
		srv:       &http.Server{Handler: api.Handler(), ReadHeaderTimeout: 5 * time.Second},
		url:       "http://" + ln.Addr().String(),
		transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveWorkers},
	}
	go func() { s.serveErr <- s.srv.Serve(ln) }()

	client := &leasesvc.Client{BaseURL: s.url, HTTP: &http.Client{Transport: s.transport}}
	var leases leaseAPI = client
	if tr != nil {
		leases = &timedLeases{c: client, tr: tr, obs: obs}
	}
	wctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := 0; i < serveWorkers; i++ {
		id := fmt.Sprintf("w%d", i+1)
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			shard.RunWorker(wctx, shard.WorkerConfig{
				Registry: leases, ID: id, Slots: serveSlots, TTL: serveLeaseTTL,
				Run: fleetRun(leases, id, tr, obs),
			})
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		alive := 0
		for _, w := range svc.Workers() {
			if w.Alive {
				alive++
			}
		}
		if alive == serveWorkers {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("%d of %d fleet workers registered", alive, serveWorkers)
		}
	}
}

// close stops the workers (they deregister over HTTP), then the
// manager, the listener and the store, and waits for each.
func (s *fleetStack) close() {
	s.stopWorkers()
	s.workers.Wait()
	s.mgr.Close()
	s.srv.Close()
	<-s.serveErr
	s.transport.CloseIdleConnections()
	s.st.Close()
}

// fleetRun is the placement runner of `rhfleet -worker`: resolve the
// spec persisted in the placement's shard directory, check the
// campaign identity, and run the shard under its fenced lease.
func fleetRun(leases leaseAPI, id string, tr *tracer, obs *fleetObs) func(context.Context, leasesvc.Placement, <-chan struct{}) error {
	return func(ctx context.Context, p leasesvc.Placement, drain <-chan struct{}) error {
		b, err := os.ReadFile(shard.SpecPath(p.Dir))
		if err != nil {
			return err
		}
		var ws server.Spec
		if err := json.Unmarshal(b, &ws); err != nil {
			return err
		}
		raw, err := ws.CampaignSpec()
		if err != nil {
			return err
		}
		rsv, err := server.Resolve(raw)
		if err != nil {
			return err
		}
		if got := rsv.Spec.IdentityHash(); got != p.Campaign {
			return fmt.Errorf("placement names campaign %s, spec resolves to %s", p.Campaign, got)
		}
		s := tr.start("shard.run", "c"+p.Campaign, 0)
		obs.runStart(p.LeaseKey(), s.id)
		runner := rsv.Runner
		if tr != nil {
			runner = func(ctx context.Context, spec campaign.Spec, job campaign.Job) (campaign.Record, error) {
				js := tr.start("campaign.job", s.trace+"/"+job.Key(), s.id)
				rec, err := rsv.Runner(ctx, spec, job)
				js.end(err)
				return rec, err
			}
		}
		_, err = shard.RunShard(ctx, shard.RunConfig{
			Dir:        p.Dir,
			Assignment: shard.Assignment{Index: p.Shard, Of: p.Of},
			Spec:       rsv.Spec,
			Runner:     runner,
			Drain:      drain,
			Lease:      leases,
			LeaseTTL:   serveLeaseTTL,
			Owner:      id,
		})
		s.end(err)
		obs.runEnd(p.LeaseKey())
		return err
	}
}

// fleetClient is one closed-loop caller of the daemon's HTTP API.
type fleetClient struct {
	http *http.Client
	url  string
	tr   *tracer
	obs  *fleetObs
}

// do sends one request and decodes a 2xx JSON reply into out, or
// returns the raw body when out is nil. Transport failures and non-2xx
// replies count as HTTP errors.
func (c *fleetClient) do(method, path string, body []byte, out any) ([]byte, error) {
	raw, code, err := c.roundTrip(method, path, body)
	if err == nil && code/100 != 2 {
		err = fmt.Errorf("%s %s: %d: %s", method, path, code, bytes.TrimSpace(raw))
	}
	if err != nil {
		c.tr.add("server.http_errors", 1)
		return nil, err
	}
	if out != nil {
		err = json.Unmarshal(raw, out)
	}
	return raw, err
}

func (c *fleetClient) roundTrip(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}

// campaign submits spec, polls until it is terminal and fetches the
// artifact. It returns the campaign ID and the artifact bytes.
func (c *fleetClient) campaign(spec server.Spec) (string, []byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", nil, err
	}
	var st server.Status
	s := c.tr.start("server.submit", "", 0)
	_, err = c.do(http.MethodPost, "/v1/campaigns", body, &st)
	s.trace = st.ID
	s.end(err)
	if err != nil {
		return "", nil, err
	}
	c.obs.stamp(st.ID, false)
	for !st.Terminal() {
		time.Sleep(servePoll)
		c.tr.add("server.status_polls", 1)
		s = c.tr.start("server.status", st.ID, 0)
		_, err = c.do(http.MethodGet, "/v1/campaigns/"+st.ID, nil, &st)
		s.end(err)
		if err != nil {
			return st.ID, nil, err
		}
	}
	c.obs.stamp(st.ID, true)
	if st.State != server.StateDone {
		return st.ID, nil, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	s = c.tr.start("server.artifact_get", st.ID, 0)
	art, err := c.do(http.MethodGet, "/v1/artifacts/"+st.ArtifactID, nil, nil)
	s.end(err)
	return st.ID, art, err
}

// served is one campaign a client completed.
type served struct {
	spec     server.Spec
	id       string
	artifact []byte
}

// serveLoad runs the closed loop: each client submits its next
// campaign once the previous one's artifact is fetched, until more
// reports whether client c may start campaign i.
func serveLoad(b *bench, s *fleetStack, tr *tracer, obs *fleetObs, more func(c, i int) bool) []served {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer hc.CloseIdleConnections()
	var mu sync.Mutex
	var out []served
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &fleetClient{http: hc, url: s.url, tr: tr, obs: obs}
			for i := 0; more(c, i); i++ {
				time.Sleep(serveThinkTime(b.seed, c, i))
				spec := serveSpec(b.seed, c, i)
				start := time.Now()
				id, art, err := cl.campaign(spec)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: serve-fleet: %v\n", err)
					b.ops.fail()
					continue
				}
				b.ops.ok(time.Since(start))
				mu.Lock()
				out = append(out, served{spec, id, art})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// setUpStack starts a stack and runs one campaign through it, so the
// workers' connections, the store and the code paths are warm.
func setUpStack(b *bench, name string, tr *tracer, obs *fleetObs) (*fleetStack, error) {
	s, err := startStack(filepath.Join(b.dir, name), tr, obs)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	cl := &fleetClient{http: hc, url: s.url}
	if _, _, err := cl.campaign(serveSpec(b.seed, serveClients, 0)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func runServeFleet(ctx context.Context, b *bench) error {
	fmt.Fprintf(b.out, "lease_ttl=%s clients=%d workers=%d shards=%d poll=%s\n", serveLeaseTTL, serveClients, serveWorkers, serveShards, servePoll)
	if b.trace {
		return serveTraced(ctx, b)
	}
	// The window is split across setupReps fresh stacks, each set up
	// untimed: the workers' heartbeat phases are fixed for the life of
	// a stack and decide what share of campaigns finish within one
	// placement tick, so one stack per run made that share a per-run
	// draw.
	var done []served
	b.startWindow()
	b.ops.pause()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		s, err := setUpStack(b, fmt.Sprintf("stack-%d", i), nil, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setup = append(b.setup, time.Since(start))
		segEnd := time.Duration(i+1) * b.window / setupReps
		b.ops.resume()
		done = append(done, serveLoad(b, s, nil, nil, func(int, int) bool {
			if i < setupReps-1 {
				return b.ops.timed() < segEnd
			}
			return !b.timeUp()
		})...)
		b.ops.pause()
		s.close()
	}
	b.endWindow()
	b.work = float64(len(done))
	secs := b.ops.elapsed.Seconds()
	b.report("campaigns_per_s", b.work/secs, "campaigns/s")
	b.report("s2a_p50_ms", b.ops.latency(50), "ms")
	b.report("s2a_p90_ms", b.ops.latency(90), "ms")
	return serveVerify(ctx, b, done)
}

// serveVerify compares every fetched artifact with the summary a
// single-process run of the same spec produces. Untimed.
func serveVerify(ctx context.Context, b *bench, done []served) error {
	for _, d := range done {
		spec, err := d.spec.CampaignSpec()
		if err != nil {
			return err
		}
		res, err := rh.RunCampaign(ctx, spec, rh.CampaignOptions{})
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		want, err := res.Summary.MarshalIndent()
		if err != nil {
			return err
		}
		if !bytes.Equal(d.artifact, append(want, '\n')) {
			b.mismatch("campaign %s (seed %d): artifact differs from the single-process run", d.id, d.spec.Seed)
		}
	}
	fmt.Fprintf(b.out, "verified %d artifacts against single-process runs\n", len(done))
	return nil
}

// serveTraced runs a fixed number of campaigns per client twice, on two
// fresh stacks: untraced, then with the lease decorator, spans and the
// campaign timelines. Both passes must fetch identical artifacts.
func serveTraced(ctx context.Context, b *bench) error {
	n := max(1, int(float64(b.seconds)*serveTracedPerSecond))
	fixed := func(_, i int) bool { return i < n }
	var walls [2]time.Duration
	var passes [2][]served
	obs := newFleetObs()
	for pass := 0; pass < 2; pass++ {
		var tr *tracer
		var o *fleetObs
		if pass == 1 {
			tr, o = b.tracer, obs
		}
		s, err := setUpStack(b, fmt.Sprintf("pass-%d", pass), tr, o)
		if err != nil {
			return err
		}
		b.tracer.reset()
		start := time.Now()
		passes[pass] = serveLoad(b, s, tr, o, fixed)
		walls[pass] = time.Since(start)
		s.close()
	}
	arts := map[string][]byte{}
	for _, d := range passes[0] {
		arts[d.id] = d.artifact
	}
	for _, d := range passes[1] {
		if !bytes.Equal(arts[d.id], d.artifact) {
			b.mismatch("campaign %s: traced pass artifact differs from the untraced pass", d.id)
		}
	}

	tr := b.tracer
	var placement, publish time.Duration
	runs := 0
	for _, d := range passes[1] {
		placement += obs.firstRun[d.id].Sub(obs.submitted[d.id])
		publish += obs.done[d.id].Sub(obs.lastRunEnd[d.id])
		runs += obs.runs[d.id]
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.layers["server.submit_ms"] = busyMS(tr, "server.submit")
	b.layers["server.status_polls"] = tr.count("server.status_polls")
	b.layers["server.artifact_get_ms"] = busyMS(tr, "server.artifact_get")
	b.layers["server.http_errors"] = tr.count("server.http_errors")
	for _, call := range []string{"acquire", "beat", "release", "worker_beat"} {
		b.layers["leasesvc."+call+"_ms"] = busyMS(tr, "leasesvc."+call)
		b.layers["leasesvc."+call+"_count"] = tr.count("leasesvc." + call + "_count")
		b.layers["leasesvc."+call+"_errors"] = tr.count("leasesvc." + call + "_errors")
	}
	b.layers["shard.placement_wait_ms"] = ms(placement)
	b.layers["shard.run_ms"] = busyMS(tr, "shard.run")
	b.layers["shard.publish_wait_ms"] = ms(publish)
	if len(passes[1]) > 0 {
		b.layers["shard.runs_per_shard"] = float64(runs) / float64(len(passes[1])*serveShards)
	}
	b.layers["campaign.job_ms"] = busyMS(tr, "campaign.job")
	b.layers["trace.overhead_pct"] = overheadPct(walls[0], walls[1])
	ids := make([]string, 0, len(arts))
	for id := range arts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var digest uint64
	for _, id := range ids {
		digest = rng.Hash64(digest, rng.HashString(id+string(arts[id])))
	}
	fmt.Fprintf(b.out, "traced %d campaigns per client: untraced %.3f s, traced %.3f s, artifact digest %016x\n",
		n, walls[0].Seconds(), walls[1].Seconds(), digest)
	return serveVerify(ctx, b, passes[0])
}
