package exp

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	rh "rowhammer"
	"rowhammer/internal/artifact"
	"rowhammer/internal/dram"
	"rowhammer/internal/softmc"
	"rowhammer/internal/stats"
)

// The paper's aggressor-time grids (§6): on-time 34.5→154.5 ns in
// 30 ns steps, off-time 16.5→40.5 ns in 6 ns steps.
var (
	aggOnGridNs  = []float64{34.5, 64.5, 94.5, 124.5, 154.5}
	aggOffGridNs = []float64{16.5, 22.5, 28.5, 34.5, 40.5}
)

// fig6Tests names the three §6 test types in print order.
var fig6Tests = []string{"baseline", "aggressor-on", "aggressor-off"}

// fig6Shard builds the three §6 command sequences and measures the
// ACT→PRE / PRE→ACT spacings from the executor trace (single shard:
// one trace).
func fig6Shard(ctx context.Context, cfg Config, shard string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	b, err := rh.NewBench(rh.BenchConfig{Profile: rh.ProfileByName("A"), Seed: cfg.Seed, Geometry: cfg.Geometry})
	if err != nil {
		return nil, err
	}
	tm := b.Timing()
	tests := []struct {
		name    string
		on, off dram.Picos
	}{
		{"baseline", tm.TRAS, tm.TRP},
		{"aggressor-on", dram.PicosFromNs(154.5), tm.TRP},
		{"aggressor-off", tm.TRAS, dram.PicosFromNs(40.5)},
	}
	a := artifact.New(shard)
	for _, tc := range tests {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
		bld := softmc.NewBuilder(tm.TCK)
		// Settle any pending tRP/tRC from the previous sequence.
		bld.Wait(tm.TRC)
		bld.Act(0, 9).Wait(tc.on).Pre(0).Wait(tc.off).
			Act(0, 11).Wait(tc.on).Pre(0).Wait(tc.off).
			Act(0, 9).Wait(tc.on).Pre(0)
		b.Exec.SetTrace(true)
		tr, err := b.Exec.Run(bld.Program())
		if err != nil {
			return nil, err
		}
		b.Exec.SetTrace(false)
		// Trace: ACT PRE ACT PRE ACT PRE.
		a.AddRow("test="+tc.name).Tag("test", tc.name).
			Set("on_ns", (tr.Trace[1].At-tr.Trace[0].At).Nanoseconds()).
			Set("off_ns", (tr.Trace[2].At - tr.Trace[1].At).Nanoseconds())
	}
	return a, nil
}

// renderFig6 prints the measured command spacings from the artifact.
func renderFig6(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "test\ttAggOn (ACT→PRE)\ttAggOff (PRE→ACT)")
	for _, name := range fig6Tests {
		r := a.Row("test=" + name)
		if r == nil {
			return fmt.Errorf("exp: fig6 artifact missing test %s", name)
		}
		fmt.Fprintf(w, "%s\t%.1f ns\t%.1f ns\n", name, r.V("on_ns"), r.V("off_ns"))
	}
	return w.Flush()
}

// aggSweepRows is the per-module victim budget of §6 sweeps.
const aggSweepRows = 12

// AggTimePoint summarizes one grid value for one manufacturer.
type AggTimePoint struct {
	ValueNs float64
	// BERs and HCs are per-(module,row) samples.
	BERs []float64
	HCs  []float64
	// Box/letter statistics for the figure rendering, rebuilt from
	// the samples by aggPoints.
	BERBox stats.BoxPlot
	HCLV   stats.LetterValues
}

// AggTimeResult is the renderer's view of a §6 sweep for all
// manufacturers, rebuilt from the merged artifact by aggResult.
type AggTimeResult struct {
	Mfrs   []string
	Points [][]AggTimePoint // [mfr][gridIdx]
}

// aggNormalize applies the §6 geometry floor: BER amplification
// factors up to ~10× need cell-count headroom (≥8K-bit rows) that
// narrow test-geometry rows would saturate.
func aggNormalize(cfg Config) Config {
	cfg = cfg.normalize()
	if cfg.Geometry.ColumnsPerRow < 128 {
		cfg.Geometry.ColumnsPerRow = 128
	}
	return cfg
}

// aggSweepMfr runs the §6 measurement of one manufacturer over a
// timing grid; onSweep selects the aggressor-on grid (vs off).
func aggSweepMfr(cfg Config, mfr string, gridNs []float64, onSweep bool) ([]AggTimePoint, error) {
	bs, err := benches(cfg, mfr)
	if err != nil {
		return nil, err
	}
	rows := sampleRows(cfg, aggSweepRows)
	points := make([]AggTimePoint, len(gridNs))
	for gi, v := range gridNs {
		points[gi].ValueNs = v
	}
	for _, b := range bs {
		t := rh.NewTester(b)
		pat, err := wcdp(t, cfg)
		if err != nil {
			return nil, err
		}
		for gi, v := range gridNs {
			onNs, offNs := 0.0, 0.0
			if onSweep {
				onNs = v
			} else {
				offNs = v
			}
			for _, row := range rows {
				hr, err := t.BER(rh.HammerConfig{
					Bank: 0, VictimPhys: row, Hammers: cfg.Scale.Hammers,
					AggOnNs: onNs, AggOffNs: offNs, Pattern: pat,
				}, cfg.Scale.Repetitions)
				if err != nil {
					return nil, err
				}
				points[gi].BERs = append(points[gi].BERs, float64(hr.Victim.Count()))
				hc, err := t.HCFirstMin(rh.HCFirstConfig{
					Bank: 0, VictimPhys: row, MaxHammers: cfg.Scale.MaxHammers,
					AggOnNs: onNs, AggOffNs: offNs, Pattern: pat,
				}, cfg.Scale.Repetitions)
				if err != nil {
					return nil, err
				}
				if hc.Found {
					points[gi].HCs = append(points[gi].HCs, float64(hc.HCfirst))
				}
			}
		}
	}
	return points, nil
}

// MeanBERRatio returns mean BER at the last grid point over the first.
func (r AggTimeResult) MeanBERRatio(mfrIdx int) float64 {
	pts := r.Points[mfrIdx]
	base := stats.Mean(pts[0].BERs)
	if base == 0 {
		return 0
	}
	return stats.Mean(pts[len(pts)-1].BERs) / base
}

// MeanHCChange returns the fractional mean HCfirst change from the
// first to the last grid point.
func (r AggTimeResult) MeanHCChange(mfrIdx int) float64 {
	pts := r.Points[mfrIdx]
	base := stats.Mean(pts[0].HCs)
	if base == 0 {
		return 0
	}
	return stats.Mean(pts[len(pts)-1].HCs)/base - 1
}

// aggShard returns the per-manufacturer Compute of one §6 sweep. The
// artifact stores the raw per-grid-point samples; renderers rebuild
// the box/letter statistics from them, so the fragment stays compact
// and the rendered text stays byte-identical.
func aggShard(gridNs []float64, onSweep bool) func(context.Context, Config, string) (*artifact.Artifact, error) {
	return func(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
		cfg = aggNormalize(cfg.WithContext(ctx))
		points, err := aggSweepMfr(cfg, mfr, gridNs, onSweep)
		if err != nil {
			return nil, err
		}
		a := artifact.New(mfr)
		for gi, p := range points {
			key := fmt.Sprintf("%s/g=%02d", mfrKey(mfr), gi)
			a.AddRow(key).Set("value_ns", p.ValueNs)
			a.AddSeries(key+"/bers", p.BERs)
			a.AddSeries(key+"/hcs", p.HCs)
		}
		return a, nil
	}
}

// aggPoints rebuilds one manufacturer's sweep points from the
// artifact, deriving the box and letter-value statistics from the
// stored raw samples.
func aggPoints(a *artifact.Artifact, mfr string) []AggTimePoint {
	var points []AggTimePoint
	for _, r := range a.RowsWithPrefix(mfrKey(mfr) + "/g=") {
		p := AggTimePoint{
			ValueNs: r.V("value_ns"),
			BERs:    a.SeriesPoints(r.Key + "/bers"),
			HCs:     a.SeriesPoints(r.Key + "/hcs"),
		}
		if len(p.BERs) > 0 {
			p.BERBox, _ = stats.NewBoxPlot(p.BERs)
		}
		if len(p.HCs) > 0 {
			p.HCLV, _ = stats.NewLetterValues(p.HCs, 2)
		}
		points = append(points, p)
	}
	return points
}

// aggResult rebuilds the full sweep result from the merged artifact.
func aggResult(a *artifact.Artifact) AggTimeResult {
	res := AggTimeResult{Mfrs: a.Shards}
	for _, mfr := range a.Shards {
		res.Points = append(res.Points, aggPoints(a, mfr))
	}
	return res
}

// renderAggBER returns the BER-sweep renderer (Figs. 7 and 9).
func renderAggBER(label string) func(io.Writer, *artifact.Artifact) error {
	return func(out io.Writer, a *artifact.Artifact) error {
		res := aggResult(a)
		for i, mfr := range res.Mfrs {
			fmt.Fprintf(out, "Mfr. %s (mean BER ratio last/first: %.1fx)\n", mfr, res.MeanBERRatio(i))
			w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
			fmt.Fprintf(w, "%s\tmin\tQ1\tmedian\tQ3\tmax\tmean\n", label)
			for _, p := range res.Points[i] {
				fmt.Fprintf(w, "%.1f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\n",
					p.ValueNs, p.BERBox.Min, p.BERBox.Q1, p.BERBox.Median, p.BERBox.Q3, p.BERBox.Max, stats.Mean(p.BERs))
			}
			if err := w.Flush(); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	}
}

// renderAggHC returns the HCfirst-sweep renderer (Figs. 8 and 10).
func renderAggHC(label string) func(io.Writer, *artifact.Artifact) error {
	return func(out io.Writer, a *artifact.Artifact) error {
		res := aggResult(a)
		for i, mfr := range res.Mfrs {
			fmt.Fprintf(out, "Mfr. %s (mean HCfirst change: %+.1f%%)\n", mfr, 100*res.MeanHCChange(i))
			w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
			fmt.Fprintf(w, "%s\tmedian HCfirst\tquartile box\tsamples\n", label)
			for _, p := range res.Points[i] {
				box := "-"
				if len(p.HCLV.Boxes) > 0 {
					box = fmt.Sprintf("[%.0f, %.0f]", p.HCLV.Boxes[0][0], p.HCLV.Boxes[0][1])
				}
				fmt.Fprintf(w, "%.1f\t%.0f\t%s\t%d\n", p.ValueNs, p.HCLV.Median, box, len(p.HCs))
			}
			if err := w.Flush(); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	}
}
