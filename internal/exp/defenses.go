package exp

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	rh "rowhammer"
	"rowhammer/internal/artifact"
	"rowhammer/internal/defense"
	"rowhammer/internal/sched"
)

// defense1Out is one manufacturer's row-aware configuration study.
type defense1Out struct {
	// worst and p5 are the measured worst-case and 5th-percentile
	// HCfirst values the configurations derive from.
	worst, p5 float64
	// Graphene and BlockHammer area fractions (baseline, row-aware)
	// and the row-aware area reductions.
	gBase, gRow, gRed float64
	bBase, bRow, bRed float64
	// PARA slowdown at the worst-case vs the relaxed probability.
	paraBase, paraRelaxed float64
}

// defense1From derives the row-aware configuration from one
// manufacturer's row-variation summary.
func defense1From(cfg Config, s rh.RowVariationSummary) defense1Out {
	worst := s.MinHC
	p5 := s.MinHC * s.RatioP95
	rcfg := defense.RowAwareConfig{
		WeakRowFraction: 0.05,
		ThresholdWeak:   int64(worst),
		ThresholdStrong: int64(p5),
		RowsPerBank:     cfg.Geometry.RowsPerBank,
	}
	gb := defense.GrapheneArea(rcfg.ThresholdWeak)
	gr := defense.RowAwareGrapheneArea(rcfg)
	bb := defense.BlockHammerArea(rcfg.ThresholdWeak)
	br := defense.RowAwareBlockHammerArea(rcfg)
	return defense1Out{
		worst: worst, p5: p5,
		gBase: gb, gRow: gr, gRed: defense.AreaReduction(gb, gr),
		bBase: bb, bRow: br, bRed: defense.AreaReduction(bb, br),
		paraBase:    defense.PARASlowdown(defense.PARAProbability(int64(worst), 1e-15)),
		paraRelaxed: defense.PARASlowdown(defense.PARAProbability(int64(p5), 1e-15)),
	}
}

// defense1Shard measures one manufacturer's row-aware configuration.
func defense1Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	_, s, err := fig11Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	o := defense1From(cfg, s)
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).
		Set("worst_hc", o.worst).Set("p5_hc", o.p5).
		Set("graphene_base", o.gBase).Set("graphene_row", o.gRow).Set("graphene_red", o.gRed).
		Set("bh_base", o.bBase).Set("bh_row", o.bRow).Set("bh_red", o.bRed).
		Set("para_base", o.paraBase).Set("para_relaxed", o.paraRelaxed)
	return a, nil
}

// renderDefense1 prints Improvement 1 from the artifact.
func renderDefense1(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr\tworst HCfirst\tP5 HCfirst\tGraphene area\t→ row-aware\tsaving\tBlockHammer area\t→ row-aware\tsaving\tPARA slowdown\t→ relaxed")
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: def1 artifact missing shard %s", mfr)
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.2f%%\t%.2f%%\t%s\t%.2f%%\t%.2f%%\t%s\t%s\t%s\n",
			mfr, r.V("worst_hc"), r.V("p5_hc"),
			100*r.V("graphene_base"), 100*r.V("graphene_row"), pct(r.V("graphene_red")),
			100*r.V("bh_base"), 100*r.V("bh_row"), pct(r.V("bh_red")),
			pct(r.V("para_base")), pct(r.V("para_relaxed")))
	}
	return w.Flush()
}

// defense2Out is one manufacturer's sampled-profiling prediction. ok
// is false when the manufacturer lacks the modules/subarrays for the
// transfer study at test scale.
type defense2Out struct {
	ok bool
	// trueMin is the module's minimum HCfirst from full profiling;
	// estimate the prediction from one sampled subarray.
	trueMin, estimate, relErr float64
	// speedup is subarrays profiled in full over subarrays sampled.
	speedup float64
}

// defense2Mfr predicts one manufacturer's new-module worst case from
// one sampled subarray plus a through-origin model fitted on the
// other modules.
func defense2Mfr(cfg Config, mfr string) (defense2Out, error) {
	var out defense2Out
	perModule, err := profileSubarrays(cfg, mfr)
	if err != nil {
		return out, err
	}
	if len(perModule) < 2 || len(perModule[0]) < 2 {
		return out, nil
	}
	// Train on modules 1..n-1 with a through-origin (ratio)
	// estimator: the min/avg relation transfers across modules of
	// a manufacturer even when their absolute HCfirst levels
	// differ (Fig. 14's intercepts are small relative to the
	// HCfirst range).
	ratioSum, ratioN := 0.0, 0
	for _, subs := range perModule[1:] {
		for _, s := range subs {
			if s.Avg > 0 {
				ratioSum += s.Min / s.Avg
				ratioN++
			}
		}
	}
	if ratioN == 0 {
		return out, nil
	}
	ratio := ratioSum / float64(ratioN)
	// Predict module 0's worst case from one sampled subarray.
	target := perModule[0]
	sampled := target[0]
	estimate := ratio * sampled.Avg
	trueMin := target[0].Min
	for _, s := range target[1:] {
		if s.Min < trueMin {
			trueMin = s.Min
		}
	}
	out.ok = true
	out.trueMin = trueMin
	out.estimate = estimate
	if trueMin > 0 {
		out.relErr = (estimate - trueMin) / trueMin
	}
	out.speedup = float64(len(target))
	return out, nil
}

// defense2Shard measures one manufacturer's sampled-profiling study.
func defense2Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	o, err := defense2Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	if o.ok {
		a.AddRow(mfrKey(mfr)).
			Set("true_min", o.trueMin).Set("estimate", o.estimate).
			Set("rel_error", o.relErr).Set("speedup", o.speedup)
	}
	return a, nil
}

// renderDefense2 prints Improvement 2 from the artifact.
func renderDefense2(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr\ttrue min HCfirst\tsampled estimate\trel. error\tprofiling speedup")
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%+.1f%%\t%.0fx\n",
			mfr, r.V("true_min"), r.V("estimate"), 100*r.V("rel_error"), r.V("speedup"))
	}
	return w.Flush()
}

// defense3Shard builds a temperature-aware retirement policy from a
// temperature sweep and checks its coverage: the fraction of rows that
// flipped at 85 °C that the 85 °C retirement set contains (single
// shard: one Mfr A module).
func defense3Shard(ctx context.Context, cfg Config, shard string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	const mfr = "A"
	bs, err := benches(cfg, mfr)
	if err != nil {
		return nil, err
	}
	t := rh.NewTester(bs[0])
	rows := sampleRows(cfg, tempSweepRows)
	sweep, err := t.TemperatureSweepCtx(cfg.Ctx, rh.TempSweepConfig{
		Bank: 0, Victims: rows, Hammers: cfg.Scale.Hammers,
		Pattern: rh.PatCheckered, Repetitions: 1,
	})
	if err != nil {
		return nil, err
	}
	policy := defense.NewRetirementPolicy()
	flippedAt85 := map[int]bool{}
	for cell, mask := range sweep.Cells {
		lo, hi := maskLoHi(mask)
		policy.AddCellRange(cell.Row, sweep.Temps[lo], sweep.Temps[hi])
		for ti, temp := range sweep.Temps {
			if temp == 85 && mask&(1<<uint(ti)) != 0 {
				flippedAt85[cell.Row] = true
			}
		}
	}
	r50 := policy.RetiredRows(50, 0)
	r85 := policy.RetiredRows(85, 0)
	retired := map[int]bool{}
	for _, r := range r85 {
		retired[r] = true
	}
	covered := 0
	for row := range flippedAt85 {
		if retired[row] {
			covered++
		}
	}
	coverage := 1.0
	if len(flippedAt85) > 0 {
		coverage = float64(covered) / float64(len(flippedAt85))
	}
	a := artifact.New(shard)
	a.AddRow("retirement").Tag("mfr", mfr).
		SetInt("profiled", int64(policy.ProfiledRows())).
		SetInt("retired_50", int64(len(r50))).
		SetInt("retired_85", int64(len(r85))).
		Set("coverage", coverage)
	return a, nil
}

// renderDefense3 prints Improvement 3 from the artifact.
func renderDefense3(out io.Writer, a *artifact.Artifact) error {
	r := a.Row("retirement")
	if r == nil {
		return fmt.Errorf("exp: def3 artifact missing retirement row")
	}
	fmt.Fprintf(out, "Mfr. %s: %d profiled rows; retire %d rows at 50°C, %d at 85°C; 85°C coverage %s\n",
		r.Label("mfr"), r.Int("profiled"), r.Int("retired_50"), r.Int("retired_85"), pct(r.V("coverage")))
	return nil
}

// defense4Reduction derives the cooling reduction from the Fig. 4
// trend at 90 °C: BER(90) = (1+at90)×BER(50).
func defense4Reduction(at90 float64) float64 {
	if 1+at90 > 0 {
		return at90 / (1 + at90)
	}
	return 0
}

// defense4Shard measures one manufacturer's cooling reduction.
func defense4Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	f4, err := fig4Shard(ctx, cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).Set("ber_reduction", defense4Reduction(fig4TrendAt(f4, mfr, 90)))
	return a, nil
}

// renderDefense4 prints Improvement 4 from the artifact.
func renderDefense4(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr\tBER reduction from cooling 90→50 °C")
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: def4 artifact missing shard %s", mfr)
		}
		fmt.Fprintf(w, "%s\t%s\n", mfr, pct(r.V("ber_reduction")))
	}
	return w.Flush()
}

// defense5Shard shows the open-time limiter restoring HCfirst, and
// measures its cost on a benign workload (single shard: one Mfr A
// module plus a scheduler simulation).
func defense5Shard(ctx context.Context, cfg Config, shard string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	const mfr = "A"
	bs, err := benches(cfg, mfr)
	if err != nil {
		return nil, err
	}
	b := bs[0]
	t := rh.NewTester(b)
	tm := b.Timing()
	rows := sampleRows(cfg, 4)
	victim := rows[len(rows)/2]

	base, err := t.HCFirst(rh.HCFirstConfig{Bank: 0, VictimPhys: victim, Pattern: rh.PatCheckered, Trial: 1, MaxHammers: cfg.Scale.MaxHammers})
	if err != nil {
		return nil, err
	}
	ext, err := t.HCFirst(rh.HCFirstConfig{Bank: 0, VictimPhys: victim, Pattern: rh.PatCheckered, Trial: 1, AggOnNs: 154.5, MaxHammers: cfg.Scale.MaxHammers})
	if err != nil {
		return nil, err
	}
	// The limiter caps every open interval at tRAS: the attacker's
	// requested 154.5 ns opens become tRAS opens (plus extra
	// activations of the *aggressor*, which only hammer faster — the
	// limiter therefore also throttles total bank time; HCfirst
	// returns to the baseline).
	limiter := defense.NewOpenTimeLimiter(tm.TRAS)
	limiter.Clamp(rh.Picos(154.5 * 1000))
	lim, err := t.HCFirst(rh.HCFirstConfig{Bank: 0, VictimPhys: victim, Pattern: rh.PatCheckered, Trial: 1, MaxHammers: cfg.Scale.MaxHammers})
	if err != nil {
		return nil, err
	}

	// Scheduler-level benign cost: average request latency of a
	// row-buffer-friendly workload under open-page vs the capped
	// policy, and the cap's enforced bound on row-open time.
	reqs := sched.Generate(sched.WorkloadConfig{
		Requests: 20000, Banks: cfg.Geometry.Banks, Rows: cfg.Geometry.RowsPerBank,
		Cols: cfg.Geometry.ColumnsPerRow, Locality: 0.85,
		InterArrival: rh.Picos(30_000), Seed: cfg.Seed,
	})
	open, err := sched.Simulate(reqs, tm, sched.OpenPage, 0)
	if err != nil {
		return nil, err
	}
	capped, err := sched.Simulate(reqs, tm, sched.CappedOpenPage, 4*tm.TRAS)
	if err != nil {
		return nil, err
	}
	var slowdown float64
	if open.AvgLatencyNs() > 0 {
		slowdown = capped.AvgLatencyNs()/open.AvgLatencyNs() - 1
	}
	a := artifact.New(shard)
	a.AddRow("limiter").Tag("mfr", mfr).
		SetInt("baseline_hc", base.HCfirst).SetInt("extended_hc", ext.HCfirst).
		SetInt("limited_hc", lim.HCfirst).SetInt("extra_acts", limiter.ExtraActs).
		Set("open_latency_ns", open.AvgLatencyNs()).Set("capped_latency_ns", capped.AvgLatencyNs()).
		Set("benign_slowdown", slowdown).Set("max_row_open_ns", capped.MaxRowOpen.Nanoseconds())
	return a, nil
}

// renderDefense5 prints Improvement 5 from the artifact.
func renderDefense5(out io.Writer, a *artifact.Artifact) error {
	r := a.Row("limiter")
	if r == nil {
		return fmt.Errorf("exp: def5 artifact missing limiter row")
	}
	fmt.Fprintf(out, "Mfr. %s: HCfirst baseline %d; extended-on-time attack %d; with open-time limiter %d (restored); limiter cost: %d extra ACTs per long open\n",
		r.Label("mfr"), r.Int("baseline_hc"), r.Int("extended_hc"), r.Int("limited_hc"), r.Int("extra_acts"))
	fmt.Fprintf(out, "benign workload (85%% row locality): %.1f ns avg latency open-page → %.1f ns capped (%.1f%% slowdown); max row-open bounded to %.1f ns\n",
		r.V("open_latency_ns"), r.V("capped_latency_ns"), 100*r.V("benign_slowdown"), r.V("max_row_open_ns"))
	return nil
}

// defense6From plans ECC provisioning from one measured column
// profile.
func defense6From(acc *rh.ColumnAccumulator) float64 {
	// Flatten (chip, column) counts to one profile.
	var flips []int
	for _, chip := range acc.Counts {
		flips = append(flips, chip...)
	}
	budget := len(flips) / 4
	aware := defense.PlanColumnECC(flips, budget, 1)
	uniform := defense.UniformECCPlan(len(flips), budget, 1)
	ea := aware.UncorrectedExposure(flips)
	eu := uniform.UncorrectedExposure(flips)
	if eu > 0 {
		return ea / eu
	}
	return 1.0
}

// defense6Shard measures one manufacturer's ECC planning study.
func defense6Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	cfg.Geometry = columnGeometry(cfg.Geometry)
	acc, err := fig12Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).Set("exposure_ratio", defense6From(acc))
	return a, nil
}

// renderDefense6 prints Improvement 6 from the artifact.
func renderDefense6(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr\tcolumn-aware / uniform uncorrected exposure")
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: def6 artifact missing shard %s", mfr)
		}
		fmt.Fprintf(w, "%s\t%.2f\n", mfr, r.V("exposure_ratio"))
	}
	return w.Flush()
}
