package exp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	rh "rowhammer"
	"rowhammer/internal/artifact"
)

// tinyConfig keeps experiment tests fast while preserving the trends.
func tinyConfig() Config {
	return Config{
		Scale: rh.Scale{
			RowsPerRegion: 10,
			Regions:       2,
			Hammers:       150_000,
			MaxHammers:    512_000,
			Repetitions:   1,
			ModulesPerMfr: 2,
		},
		Seed: 0x5eed,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 512, SubarrayRows: 128,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 32,
		},
	}
}

// run computes one experiment's merged artifact through the registry —
// the same path rhchar, the goldens and fleet campaigns publish.
func run(tb testing.TB, id string, cfg Config) *artifact.Artifact {
	tb.Helper()
	a, err := ByID(id).ComputeAll(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// row returns the artifact row with the given key, failing when it is
// absent.
func row(tb testing.TB, a *artifact.Artifact, key string) *artifact.Row {
	tb.Helper()
	r := a.Row(key)
	if r == nil {
		tb.Fatalf("%s artifact missing row %q", a.Experiment, key)
	}
	return r
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Section == "" || e.Schema < 1 ||
			len(e.Shards) == 0 || e.Compute == nil || e.Render == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every table and figure of the evaluation must be present.
	for _, id := range []string{
		"table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"atk1", "atk2", "atk3", "def1", "def2", "def3", "def4", "def5", "def6",
	} {
		if !ids[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if ByID("fig11") == nil || ByID("nope") != nil {
		t.Fatal("ByID lookup broken")
	}
}

func TestTable2Inventory(t *testing.T) {
	a := run(t, "table2", tinyConfig())
	tot := row(t, a, "totals")
	if tot.Int("ddr4_chips") != 248 || tot.Int("ddr3_chips") != 24 {
		t.Fatalf("chip counts %d/%d, want 248/24", tot.Int("ddr4_chips"), tot.Int("ddr3_chips"))
	}
	if tot.Int("ddr4_modules") != 22 || tot.Int("ddr3_modules") != 3 {
		t.Fatalf("module counts %d/%d, want 22/3", tot.Int("ddr4_modules"), tot.Int("ddr3_modules"))
	}
	var buf bytes.Buffer
	if err := ByID("table2").Render(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "248 DDR4 chips") {
		t.Fatalf("output missing totals:\n%s", buf.String())
	}
}

func TestTable3NoGapDominates(t *testing.T) {
	a := run(t, "table3", tinyConfig())
	if len(a.Shards) != 4 {
		t.Fatalf("mfrs = %v", a.Shards)
	}
	for _, mfr := range a.Shards {
		if f := row(t, a, mfrKey(mfr)).V("no_gap_frac"); f < 0.9 {
			t.Errorf("mfr %s: no-gap fraction %.3f, want > 0.9 (paper ≈0.98-0.99)", mfr, f)
		}
	}
}

func TestFig3ClusterShape(t *testing.T) {
	a := run(t, "fig3", tinyConfig())
	for _, mfr := range a.Shards {
		m, err := clusterFromArtifact(a, mfrKey(mfr))
		if err != nil {
			t.Fatal(err)
		}
		if m.Total == 0 {
			t.Fatalf("mfr %s: no vulnerable cells", mfr)
		}
		// Obsv. 2: the full-range cluster is the largest single
		// cluster for every manufacturer (paper: 9.6%–29.8%).
		if full := m.FullRangeFraction(); full < 0.04 {
			t.Errorf("mfr %s: full-range fraction %.3f too small", mfr, full)
		}
		// Obsv. 3: narrow-range cells exist but are a small minority.
		if n := m.NarrowRangeFraction(); n > 0.5 {
			t.Errorf("mfr %s: single-temperature cells %.2f, want minority", mfr, n)
		}
	}
}

func TestFig4TemperatureTrends(t *testing.T) {
	a := run(t, "fig4", tinyConfig())
	for _, mfr := range a.Shards {
		at90 := fig4TrendAt(a, mfr, 90)
		switch mfr {
		case "B":
			if at90 >= 0 {
				t.Errorf("Mfr B BER change at 90 °C = %+.2f, want negative", at90)
			}
		default:
			if at90 <= 0 {
				t.Errorf("Mfr %s BER change at 90 °C = %+.2f, want positive", mfr, at90)
			}
		}
	}
	// Mfr D shows the strongest increase (paper ≈ +200%).
	if d, c := fig4TrendAt(a, "D", 90), fig4TrendAt(a, "C", 90); d <= c {
		t.Errorf("Mfr D trend %.2f should exceed Mfr C %.2f", d, c)
	}
}

func TestFig5HCFirstChange(t *testing.T) {
	a := run(t, "fig5", tinyConfig())
	for _, mfr := range a.Shards {
		if len(a.SeriesPoints(mfrKey(mfr)+"/change90")) == 0 {
			t.Fatalf("mfr %s: no rows measured", mfr)
		}
		r := row(t, a, mfrKey(mfr))
		// Obsv. 5: both directions occur — crossings well inside
		// (0, 100).
		if c := r.V("cross90"); c <= 5 || c >= 95 {
			t.Errorf("mfr %s: 50→90 crossing P%.0f, want interior", mfr, c)
		}
		// Obsv. 7: larger temperature change ⇒ larger cumulative
		// magnitude (paper: ≈4×).
		if m := r.V("magnitude_ratio"); m <= 1 {
			t.Errorf("mfr %s: magnitude ratio %.2f, want > 1", mfr, m)
		}
	}
}

func TestFig6CommandTimings(t *testing.T) {
	a := run(t, "fig6", tinyConfig())
	if got := row(t, a, "test=baseline").V("on_ns"); got != 34.5 {
		t.Fatalf("baseline tAggOn = %v", got)
	}
	if got := row(t, a, "test=aggressor-on").V("on_ns"); got != 154.5 {
		t.Fatalf("aggressor-on tAggOn = %v", got)
	}
	if got := row(t, a, "test=aggressor-off").V("off_ns"); got != 40.5 {
		t.Fatalf("aggressor-off tAggOff = %v", got)
	}
	if got := row(t, a, "test=baseline").V("off_ns"); got != 16.5 {
		t.Fatalf("baseline tAggOff = %v", got)
	}
}

func TestFig7And8AggressorOnTrends(t *testing.T) {
	// Figs. 7 and 8 share one sweep (and one artifact layout).
	res := aggResult(run(t, "fig7", tinyConfig()))
	for i, mfr := range res.Mfrs {
		if r := res.MeanBERRatio(i); r <= 1.5 {
			t.Errorf("mfr %s: BER ratio %.2f at 154.5 ns, want > 1.5 (paper 3.1–10.2x)", mfr, r)
		}
		if c := res.MeanHCChange(i); c >= -0.1 {
			t.Errorf("mfr %s: HCfirst change %+.2f, want < -0.1 (paper −28%%…−40%%)", mfr, c)
		}
	}
	// Mfr A has the strongest BER response (paper 10.2×) and B the
	// weakest (3.1×).
	if res.MeanBERRatio(0) <= res.MeanBERRatio(1) {
		t.Errorf("Mfr A BER ratio %.1f should exceed Mfr B %.1f", res.MeanBERRatio(0), res.MeanBERRatio(1))
	}
}

func TestFig9And10AggressorOffTrends(t *testing.T) {
	// Figs. 9 and 10 share one sweep (and one artifact layout).
	res := aggResult(run(t, "fig9", tinyConfig()))
	for i, mfr := range res.Mfrs {
		pts := res.Points[i]
		if len(pts[0].BERs) == 0 {
			t.Fatalf("mfr %s: no baseline samples", mfr)
		}
		if r := res.MeanBERRatio(i); r >= 0.7 {
			t.Errorf("mfr %s: BER ratio %.2f at 40.5 ns, want < 0.7 (paper ÷2.9–6.3)", mfr, r)
		}
		if c := res.MeanHCChange(i); c <= 0.1 {
			t.Errorf("mfr %s: HCfirst change %+.2f, want > +0.1 (paper +25%%…+50%%)", mfr, c)
		}
	}
}

func TestFig11RowVariation(t *testing.T) {
	a := run(t, "fig11", tinyConfig())
	for _, mfr := range a.Shards {
		r := row(t, a, mfrKey(mfr))
		if n := r.Int("vulnerable"); n < 5 {
			t.Fatalf("mfr %s: only %d vulnerable rows", mfr, n)
		}
		p99, p95, p90 := r.V("ratio_p99"), r.V("ratio_p95"), r.V("ratio_p90")
		if p95 < 1.0 {
			t.Errorf("mfr %s: P95 ratio %.2f < 1", mfr, p95)
		}
		// Ratios are ordered by construction: deeper percentiles sit
		// closer to the minimum.
		if !(p99 <= p95 && p95 <= p90) {
			t.Errorf("mfr %s: ratio ordering violated: %+v", mfr, r.Values)
		}
	}
}

func TestFig12And13ColumnVariation(t *testing.T) {
	f12 := run(t, "fig12", tinyConfig())
	// Obsv. 13: Mfr B (low column sigma) has far fewer zero-flip
	// columns than A/C.
	zeroA, zeroB := row(t, f12, mfrKey("A")).V("zero_frac"), row(t, f12, mfrKey("B")).V("zero_frac")
	if zeroB >= zeroA {
		t.Errorf("Mfr B zero-columns %.2f should be below Mfr A %.2f", zeroB, zeroA)
	}

	f13 := run(t, "fig13", tinyConfig())
	a, b := row(t, f13, mfrKey("A")), row(t, f13, mfrKey("B"))
	// Obsv. 14: B is design-dominated (low cross-chip variation), A is
	// process-dominated (high cross-chip variation). At test scale the
	// mean CV is the robust version of the paper's CV=0/CV=1 bucket
	// masses.
	if b.V("mean_cv") >= a.V("mean_cv") {
		t.Errorf("Mfr B mean cross-chip CV %.2f should be below Mfr A %.2f", b.V("mean_cv"), a.V("mean_cv"))
	}
	// A's heavy column factors concentrate flips in few columns.
	if b.V("column_skew") >= a.V("column_skew") {
		t.Errorf("Mfr B column skew %.2f should be below Mfr A %.2f", b.V("column_skew"), a.V("column_skew"))
	}
}

func TestFig14SubarrayRegression(t *testing.T) {
	a := run(t, "fig14", tinyConfig())
	cfg := tinyConfig().normalize()
	for _, mfr := range a.Shards {
		if slope := row(t, a, mfrKey(mfr)).V("slope"); slope <= 0 || slope >= 1.2 {
			t.Errorf("mfr %s: slope %.2f outside plausible range (min cannot exceed avg)", mfr, slope)
		}
		// The artifact stores only the fit; the per-subarray points
		// come from the shard's own helper.
		subs, _, err := fig14Mfr(cfg, mfr)
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) < 4 {
			t.Errorf("mfr %s: only %d subarray points", mfr, len(subs))
		}
		// Obsv. 15: the minimum is well below the average in every
		// subarray.
		for _, s := range subs {
			if s.Min > s.Avg {
				t.Fatalf("mfr %s: subarray %d min %.0f above avg %.0f", mfr, s.Subarray, s.Min, s.Avg)
			}
		}
	}
}

func TestFig15SubarraySimilarity(t *testing.T) {
	a := run(t, "fig15", tinyConfig())
	for _, mfr := range a.Shards {
		same := a.SeriesPoints(mfrKey(mfr) + "/same")
		diff := a.SeriesPoints(mfrKey(mfr) + "/diff")
		if len(same) == 0 || len(diff) == 0 {
			t.Fatalf("mfr %s: missing pair populations", mfr)
		}
		p5Same, p5Diff := fig15P5(same), fig15P5(diff)
		// Obsv. 16: same-module subarrays are at least as similar as
		// different-module subarrays. The separation scales with
		// module-to-module variation, so it is only individually
		// assertable for the high-variation manufacturers (B, C);
		// for A and D at this sample size the populations overlap.
		switch mfr {
		case "B", "C":
			if p5Same <= p5Diff {
				t.Errorf("mfr %s: P5 same %.3f not above P5 diff %.3f", mfr, p5Same, p5Diff)
			}
		default:
			if p5Same < p5Diff-0.2 {
				t.Errorf("mfr %s: P5 same %.3f far below P5 diff %.3f", mfr, p5Same, p5Diff)
			}
		}
	}
}

func TestAttack1InformedChoice(t *testing.T) {
	a := run(t, "atk1", tinyConfig())
	for _, mfr := range a.Shards {
		r := row(t, a, mfrKey(mfr))
		if r.Int("informed_hc") > r.Int("median_hc") {
			t.Errorf("mfr %s: informed HC %d above median %d", mfr, r.Int("informed_hc"), r.Int("median_hc"))
		}
		if r.V("reduction") < 0 {
			t.Errorf("mfr %s: negative reduction", mfr)
		}
	}
}

func TestAttack2TriggerCensus(t *testing.T) {
	r := row(t, run(t, "atk2", tinyConfig()), "trigger")
	if r.V("above_frac") <= 0 {
		t.Fatal("no at-or-above sensor cells found")
	}
	if r.Int("found") != 0 && r.Int("valid") == 0 {
		t.Fatalf("trigger found but misbehaved: below=%v above=%v", r.Int("fired_below") != 0, r.Int("fired_above") != 0)
	}
}

func TestAttack3ExtendedOnTime(t *testing.T) {
	a := run(t, "atk3", tinyConfig())
	// A manufacturer appears only when its module produced a usable
	// sample at test scale.
	measured := 0
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr) + "/res")
		if r == nil {
			continue
		}
		measured++
		if red := r.V("reduction"); red <= 0.05 {
			t.Errorf("mfr %s: HC reduction %.2f, want > 0.05 (paper ≈36%%)", mfr, red)
		}
		if br := r.V("ber_ratio"); br > 0 && br <= 1 {
			t.Errorf("mfr %s: BER ratio %.2f, want > 1 (paper 3.2–10.2x)", mfr, br)
		}
		if r.Int("base_prevented") == 0 {
			t.Errorf("mfr %s: defense failed to stop the baseline attack", mfr)
		}
		if r.Int("ext_defeats") == 0 {
			t.Errorf("mfr %s: extended attack did not defeat the threshold defense", mfr)
		}
	}
	if measured == 0 {
		t.Fatal("no manufacturers measured")
	}
}

func TestDefense1RowAwareSavings(t *testing.T) {
	a := run(t, "def1", tinyConfig())
	for _, mfr := range a.Shards {
		r := row(t, a, mfrKey(mfr))
		if r.V("p5_hc") <= r.V("worst_hc") {
			t.Errorf("mfr %s: P5 HC not above worst case", mfr)
		}
		// At test scale the measured P5/worst ratio understates the
		// paper's 2× (few rows ⇒ the empirical P5 hugs the min), so
		// only the direction is asserted here; EXPERIMENTS.md records
		// the full-scale values.
		gRed, bhRed := r.V("graphene_red"), r.V("bh_red")
		if gRed <= 0 {
			t.Errorf("mfr %s: Graphene saving %.2f, want positive", mfr, gRed)
		}
		if bhRed <= 0 {
			t.Errorf("mfr %s: BlockHammer saving %.2f, want positive", mfr, bhRed)
		}
		// Graphene benefits more from threshold relaxation than
		// BlockHammer (steeper area law).
		if gRed <= bhRed {
			t.Errorf("mfr %s: Graphene saving %.2f should exceed BlockHammer %.2f", mfr, gRed, bhRed)
		}
		if r.V("para_relaxed") >= r.V("para_base") {
			t.Errorf("mfr %s: relaxed PARA slowdown not lower", mfr)
		}
	}
}

func TestDefense2SampledProfiling(t *testing.T) {
	a := run(t, "def2", tinyConfig())
	// A manufacturer appears only when it has the modules and
	// subarrays for the transfer study at test scale.
	measured := 0
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			continue
		}
		measured++
		if s := r.V("speedup"); s < 2 {
			t.Errorf("mfr %s: speedup %.0f < 2", mfr, s)
		}
		if e := r.V("rel_error"); e < -0.6 || e > 0.6 {
			t.Errorf("mfr %s: estimate off by %+.0f%%", mfr, 100*e)
		}
	}
	if measured == 0 {
		t.Fatal("no results")
	}
}

func TestDefense3Retirement(t *testing.T) {
	r := row(t, run(t, "def3", tinyConfig()), "retirement")
	if r.Int("profiled") == 0 {
		t.Fatal("no rows profiled")
	}
	if c := r.V("coverage"); c < 0.999 {
		t.Fatalf("retirement coverage %.3f, want 1.0 (policy built from the same profile)", c)
	}
}

func TestDefense4Cooling(t *testing.T) {
	a := run(t, "def4", tinyConfig())
	if red := row(t, a, mfrKey("A")).V("ber_reduction"); red <= 0 {
		t.Errorf("Mfr A cooling reduction %.2f, want positive (paper ≈25%%)", red)
	}
	if red := row(t, a, mfrKey("B")).V("ber_reduction"); red >= 0 {
		t.Errorf("Mfr B cooling reduction %.2f, want negative (B worsens when cooled)", red)
	}
}

func TestDefense5OpenTimeLimiter(t *testing.T) {
	r := row(t, run(t, "def5", tinyConfig()), "limiter")
	base, ext, lim := r.Int("baseline_hc"), r.Int("extended_hc"), r.Int("limited_hc")
	if ext >= base {
		t.Fatalf("extended attack HC %d not below baseline %d", ext, base)
	}
	if lim != base {
		t.Fatalf("limiter should restore baseline HCfirst: %d vs %d", lim, base)
	}
	if r.Int("extra_acts") == 0 {
		t.Fatal("limiter cost not accounted")
	}
	// Scheduler proxy: a bounded open time costs a benign streaming
	// workload some latency, far below a closed-page policy, while
	// enforcing the cap.
	if s := r.V("benign_slowdown"); s < 0 || s > 0.5 {
		t.Fatalf("benign slowdown %.2f implausible", s)
	}
	if r.V("max_row_open_ns") <= 0 {
		t.Fatal("cap bound not measured")
	}
}

func TestDefense6ColumnAwareECC(t *testing.T) {
	a := run(t, "def6", tinyConfig())
	for _, mfr := range a.Shards {
		if e := row(t, a, mfrKey(mfr)).V("exposure_ratio"); e >= 1 {
			t.Errorf("mfr %s: column-aware ECC exposure ratio %.2f, want < 1", mfr, e)
		}
	}
}

// TestComputeHonorsCancelledContext checks that a shard's measurement
// loops see the campaign context: under an already-cancelled context
// Compute must fail with context.Canceled instead of running the
// whole measurement.
func TestComputeHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			frag, err := e.Compute(ctx, tinyConfig(), e.Shards[0])
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Compute under a cancelled context = (%v, %v), want context.Canceled", frag != nil, err)
			}
		})
	}
}

func TestRunAllPrintersProduceOutput(t *testing.T) {
	// Smoke-run the cheap printers end to end.
	for _, id := range []string{"table2", "fig6"} {
		e := ByID(id)
		var buf bytes.Buffer
		cfg := tinyConfig()
		cfg.Out = &buf
		if err := e.Run(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestCheapPrintersSmoke(t *testing.T) {
	// End-to-end smoke of printers not covered elsewhere; the heavy
	// sweep printers render the artifacts the tests above assert on
	// and the golden suite locks.
	for _, id := range []string{"wcdp", "defcompare", "manysided", "interference", "def5"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e := ByID(id)
			if e == nil {
				t.Fatalf("experiment %s missing", id)
			}
			var buf bytes.Buffer
			cfg := tinyConfig()
			cfg.Out = &buf
			if err := e.Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}
