package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	rh "rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/pool"
	"rowhammer/internal/rng"
)

// campaign-cold runs rhfleet-style hcfirst campaigns back to back. Every
// job builds a fresh module, so the cold fault-model build dominates:
// this is the workload a cheaper cold path must speed up.
const (
	coldModulesPerMfr = 16 // 64 jobs per campaign
	coldWarmModules   = 2  // per manufacturer, in each set-up campaign
	// coldTracedPerSecond sizes the traced run: it measures
	// seconds×this campaigns twice, untraced then traced, so the
	// traced run's counts repeat exactly for a seed.
	coldTracedPerSecond = 0.5
)

var coldMfrs = []string{"A", "B", "C", "D"}

// coldSpec is the i-th campaign of a run: a pure function of the seed.
func coldSpec(seed uint64, i, modules, workers int) rh.CampaignSpec {
	return rh.CampaignSpec{
		Kind:          rh.CampaignHCFirst,
		Mfrs:          coldMfrs,
		ModulesPerMfr: modules,
		Seed:          rng.Hash64(seed, 0xc01d, uint64(i)),
		Scale:         rh.TinyScale(),
		Geometry:      rh.TinyGeometry(),
		Workers:       workers,
	}
}

// coldRun is one finished campaign.
type coldRun struct {
	spec    rh.CampaignSpec
	engine  campaign.Spec
	ckpt    string
	res     *campaign.Result
	summary []byte
	wall    time.Duration
	busy    time.Duration // summed runner time of every job
}

// runColdCampaign runs one campaign on the engine with a fsynced v2
// checkpoint, exactly as rhfleet does. With a tracer it swaps in
// tracedRunner, which makes the same public calls as the module runner
// but times the bench build and the measurement apart.
func runColdCampaign(ctx context.Context, b *bench, spec rh.CampaignSpec, name string, tr *tracer) (*coldRun, error) {
	cs, runner, err := rh.CampaignEngine(spec)
	if err != nil {
		return nil, err
	}
	root := tr.start("campaign.run", "c"+cs.IdentityHash(), 0)
	if tr != nil {
		runner = tracedRunner(spec.Scale, spec.Geometry, tr, root)
	}
	var mu sync.Mutex
	lat := map[string]time.Duration{}
	timed := func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
		js := tr.start("campaign.job", root.trace+"/"+j.Key(), root.id)
		rec, err := runner(withSpan(ctx, js.id), s, j)
		d := js.end(err)
		mu.Lock()
		lat[j.Key()] += d
		mu.Unlock()
		return rec, err
	}
	path := filepath.Join(b.dir, name+".jsonl")
	cw, err := campaign.CreateCheckpoint(path, cs)
	if err != nil {
		return nil, err
	}
	var records campaign.RecordWriter = cw
	if tr != nil {
		records = tracedRecords{cw, tr, root}
	}
	start := time.Now()
	res, err := campaign.Run(ctx, cs, campaign.Options{Runner: timed, Records: records})
	if cerr := cw.Close(); err == nil {
		err = cerr
	}
	wall := time.Since(start)
	root.end(err)
	if res == nil {
		return nil, err
	}
	run := &coldRun{spec: spec, engine: cs, ckpt: path, res: res, wall: wall}
	for _, key := range sortedRecordKeys(res.Records) {
		run.busy += lat[key]
		if res.Records[key].Failed() {
			b.ops.fail()
		} else {
			b.ops.ok(lat[key])
		}
	}
	if run.summary, err = campaign.Aggregate(res).MarshalIndent(); err != nil {
		return nil, err
	}
	return run, nil
}

// tracedRunner is the module runner rebuilt from the package's public
// calls — profile, module seed, NewBench, NewTester, the worker split,
// MeasureModuleHCFirst — with a span around the build and one around
// the measurement. Its records must equal the engine runner's byte for
// byte; the traced run checks that.
func tracedRunner(scale rh.Scale, geom rh.Geometry, tr *tracer, root openSpan) campaign.Runner {
	return func(ctx context.Context, spec campaign.Spec, job campaign.Job) (campaign.Record, error) {
		profile := rh.ProfileByName(job.Mfr)
		if profile == nil {
			return campaign.Record{}, fmt.Errorf("unknown manufacturer profile %q", job.Mfr)
		}
		trace := root.trace + "/" + job.Key()
		seed := rh.ModuleSeed(spec.Seed, job.Mfr, job.Module)
		s := tr.start("rowhammer.new_bench", trace, spanFrom(ctx))
		bn, err := rh.NewBench(rh.BenchConfig{Profile: profile, Seed: seed, Geometry: geom})
		s.end(err)
		if err != nil {
			return campaign.Record{}, err
		}
		t := rh.NewTester(bn)
		campaignWorkers := spec.Workers
		if campaignWorkers < 1 {
			campaignWorkers = pool.DefaultWorkers()
		}
		t.SetWorkers(max(1, pool.DefaultWorkers()/campaignWorkers))
		s = tr.start("rowhammer.measure", trace, spanFrom(ctx))
		pat, metrics, series, err := t.MeasureModuleHCFirst(ctx, rh.MeasureScope{Scale: scale, Temps: spec.Temps})
		s.end(err)
		if err != nil {
			return campaign.Record{}, err
		}
		return campaign.Record{Seed: seed, Pattern: pat.String(), Metrics: metrics, Series: series}, nil
	}
}

// tracedRecords times every checkpoint append, fsync included.
type tracedRecords struct {
	cw   *campaign.CheckpointWriter
	tr   *tracer
	root openSpan
}

func (r tracedRecords) WriteRecord(rec campaign.Record) error {
	s := r.tr.start("campaign.checkpoint_append", r.root.trace+"/"+rec.Key, r.root.id)
	err := r.cw.WriteRecord(rec)
	s.end(err)
	r.tr.add("campaign.checkpoint_appends", 1)
	return err
}

func runCampaignCold(ctx context.Context, b *bench) error {
	// Set-up: resolve the engine and run a small campaign, so code,
	// allocator and checkpoint directory are warm before timing.
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if _, err := runColdCampaign(ctx, b, coldSpec(b.seed, -1-i, coldWarmModules, b.workers), fmt.Sprintf("setup-%d", i), nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setup = append(b.setup, time.Since(start))
	}
	b.ops = ops{}
	if b.trace {
		return coldTraced(ctx, b)
	}

	var runs []*coldRun
	b.startWindow()
	for i := 0; !b.timeUp(); i++ {
		r, err := runColdCampaign(ctx, b, coldSpec(b.seed, i, coldModulesPerMfr, b.workers), fmt.Sprintf("c%d", i), nil)
		if err != nil {
			return err
		}
		b.work += float64(r.res.Completed)
		runs = append(runs, r)
	}
	b.endWindow()
	b.report("jobs_per_s", b.work/b.ops.elapsed.Seconds(), "jobs/s")
	fmt.Fprintf(b.out, "campaigns %d of %d jobs, first summary digest %016x\n",
		len(runs), len(campaign.Expand(runs[0].engine)), rng.HashString(string(runs[0].summary)))

	// Correctness, untimed: every checkpoint reloads to the summary the
	// run aggregated in memory, and one campaign picked by the seed
	// matches a single-process run of the same spec byte for byte.
	for _, r := range runs {
		rep, err := campaign.LoadCheckpointReport(r.ckpt, campaign.ResumeOptions{ExpectSpec: &r.engine})
		if err != nil {
			b.mismatch("campaign seed %d: checkpoint: %v", r.spec.Seed, err)
			continue
		}
		got, err := campaign.Aggregate(&campaign.Result{Spec: r.engine, Records: rep.Records}).MarshalIndent()
		if err != nil || !bytes.Equal(got, r.summary) {
			b.mismatch("campaign seed %d: checkpoint summary differs from the in-memory summary (%v)", r.spec.Seed, err)
		}
	}
	pick := runs[b.seed%uint64(len(runs))]
	ref := pick.spec
	ref.Workers = 1
	res, err := rh.RunCampaign(ctx, ref, rh.CampaignOptions{})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	want, err := res.Summary.MarshalIndent()
	if err != nil {
		return err
	}
	if !bytes.Equal(pick.summary, want) {
		b.mismatch("campaign seed %d: summary differs from the single-process run", pick.spec.Seed)
	}
	return nil
}

// coldTraced measures a fixed number of campaigns twice — with the
// engine's runner untraced, then with tracedRunner and spans — checks
// that both passes wrote identical records, and derives the per-layer
// metrics from the traced pass.
func coldTraced(ctx context.Context, b *bench) error {
	n := max(1, int(float64(b.seconds)*coldTracedPerSecond))
	var plainWall, tracedWall, busy time.Duration
	retries := 0
	var digest uint64
	for i := 0; i < n; i++ {
		spec := coldSpec(b.seed, i, coldModulesPerMfr, b.workers)
		plain, err := runColdCampaign(ctx, b, spec, fmt.Sprintf("plain-%d", i), nil)
		if err != nil {
			return err
		}
		traced, err := runColdCampaign(ctx, b, spec, fmt.Sprintf("traced-%d", i), b.tracer)
		if err != nil {
			return err
		}
		digest = rng.Hash64(digest, rng.HashString(string(traced.summary)))
		plainWall += plain.wall
		tracedWall += traced.wall
		busy += traced.busy
		retries += traced.res.Retried
		if !bytes.Equal(encodeRecords(plain.res.Records), encodeRecords(traced.res.Records)) {
			b.mismatch("campaign seed %d: traced runner records differ from the engine runner's", spec.Seed)
		}
	}
	tr := b.tracer
	b.layers["rowhammer.new_bench_ms"] = busyMS(tr, "rowhammer.new_bench")
	b.layers["rowhammer.measure_ms"] = busyMS(tr, "rowhammer.measure")
	b.layers["campaign.checkpoint_append_ms"] = busyMS(tr, "campaign.checkpoint_append")
	b.layers["campaign.checkpoint_appends"] = tr.count("campaign.checkpoint_appends")
	b.layers["campaign.job_ms"] = busyMS(tr, "campaign.job")
	b.layers["campaign.slot_idle_frac"] = slotIdleFrac(busy, tracedWall, b.workers)
	b.layers["campaign.retries"] = float64(retries)
	b.layers["trace.overhead_pct"] = overheadPct(plainWall, tracedWall)
	fmt.Fprintf(b.out, "traced %d campaigns: untraced %.3f s, traced %.3f s, summary digest %016x\n",
		n, plainWall.Seconds(), tracedWall.Seconds(), digest)
	return nil
}

// encodeRecords renders records in key order in the checkpoint's
// record encoding.
func encodeRecords(recs map[string]campaign.Record) []byte {
	var buf bytes.Buffer
	for _, k := range sortedRecordKeys(recs) {
		campaign.WriteRecord(&buf, recs[k])
	}
	return buf.Bytes()
}

func sortedRecordKeys(recs map[string]campaign.Record) []string {
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// busyMS is the summed length of the spans named name, in ms.
func busyMS(tr *tracer, name string) float64 {
	return float64(tr.busy(name)) / float64(time.Millisecond)
}

// overheadPct is how much longer the traced pass took than the
// untraced pass of the same work, in percent.
func overheadPct(plain, traced time.Duration) float64 {
	return 100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds()
}
