// Package exp contains one driver per table and figure of the paper's
// evaluation (§5–§8). Every experiment is split into three stages:
// Compute (pure, ctx-aware measurement of one shard), Artifact (the
// uniform rows/series structure of internal/artifact), and Render (the
// paper's text report, generated from the artifact alone). The
// registry is the only compute path: rhchar, the golden tests and
// experiment-generic fleet campaigns all run it, and the trend tests
// and paper benchmarks read the same merged artifact ComputeAll
// returns.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	rh "rowhammer"
	"rowhammer/internal/artifact"
	"rowhammer/internal/pool"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale bounds the measurement work.
	Scale rh.Scale
	// Seed derives per-module seeds.
	Seed uint64
	// Out receives the rendered report in Run; Compute never writes
	// to it. A nil Out is rejected by Run rather than silently
	// discarded.
	Out io.Writer
	// Geometry of the modules under test; zero value selects the
	// reduced-scale DDR4 geometry.
	Geometry rh.Geometry
	// Ctx carries cancellation and deadlines into the measurement
	// loops; nil selects context.Background().
	Ctx context.Context
	// Workers bounds the per-shard fan-out (< 1 selects one worker
	// per CPU).
	Workers int
}

// normalize fills config defaults via the shared helper all
// measurement layers use. The temps knob — the only one
// FillMeasureDefaults can reject — is not part of Config, so the
// error is statically nil here.
func (c Config) normalize() Config {
	_ = rh.FillMeasureDefaults(&c.Scale, &c.Geometry, &c.Seed, nil)
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// WithContext returns a copy of the config carrying ctx.
func (c Config) WithContext(ctx context.Context) Config {
	c.Ctx = ctx
	return c
}

// Experiment is one runnable paper artifact.
type Experiment struct {
	// ID is the registry key (rhchar -exp, rhfleet -exp).
	ID string
	// Title is the human-readable caption.
	Title string
	// Section is the paper section the artifact reproduces.
	Section string
	// Schema versions the experiment's artifact layout; it is folded
	// into campaign identity so a checkpoint written under an older
	// layout cannot silently resume.
	Schema int
	// Shards is the experiment's decomposition hint: independent
	// units of work (typically one per manufacturer) that the fleet
	// engine schedules as separate jobs.
	Shards []string
	// Compute measures one shard and returns its artifact fragment.
	Compute func(ctx context.Context, cfg Config, shard string) (*artifact.Artifact, error)
	// Render writes the paper's text report from the merged artifact.
	Render func(w io.Writer, a *artifact.Artifact) error
}

// ComputeAll measures every shard on the config's worker pool and
// merges the fragments into the experiment's full artifact. Results
// are independent of worker count and shard completion order.
func (e Experiment) ComputeAll(ctx context.Context, cfg Config) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	frags, err := pool.Map(cfg.Ctx, cfg.Workers, len(e.Shards), func(i int) (*artifact.Artifact, error) {
		return e.Compute(cfg.Ctx, cfg, e.Shards[i])
	})
	if err != nil {
		return nil, err
	}
	return artifact.Merge(e.ID, e.Schema, frags...)
}

// Run computes the full artifact and renders the text report to
// cfg.Out.
func (e Experiment) Run(ctx context.Context, cfg Config) error {
	if cfg.Out == nil {
		return fmt.Errorf("exp: %s: Config.Out is nil — the caller must supply a writer (or use ComputeAll for the artifact)", e.ID)
	}
	a, err := e.ComputeAll(ctx, cfg)
	if err != nil {
		return err
	}
	return e.Render(cfg.Out, a)
}

// Shard names: most experiments decompose per manufacturer; a few are
// single-module or cross-module studies that run as one shard.
var (
	mfrShards  = mfrNames
	oneShard   = []string{"all"}
	ddr3Shards = []string{"A", "B", "C"}
)

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table2", Title: "Table 2/4: tested DRAM module inventory", Section: "§4.1", Schema: 1, Shards: oneShard, Compute: table2Shard, Render: renderTable2},
		{ID: "table3", Title: "Table 3: cells flipping at all in-range temperatures", Section: "§5.1", Schema: 1, Shards: mfrShards, Compute: table3Shard, Render: renderTable3},
		{ID: "fig3", Title: "Fig. 3: vulnerable temperature range clusters", Section: "§5.1", Schema: 1, Shards: mfrShards, Compute: fig3Shard, Render: renderFig3},
		{ID: "fig4", Title: "Fig. 4: BER change vs temperature", Section: "§5.2", Schema: 1, Shards: mfrShards, Compute: fig4Shard, Render: renderFig4},
		{ID: "fig5", Title: "Fig. 5: HCfirst change distribution vs temperature", Section: "§5.3", Schema: 1, Shards: mfrShards, Compute: fig5Shard, Render: renderFig5},
		{ID: "fig6", Title: "Fig. 6: aggressor on/off-time command timing", Section: "§6", Schema: 1, Shards: oneShard, Compute: fig6Shard, Render: renderFig6},
		{ID: "fig7", Title: "Fig. 7: BER vs aggressor on-time", Section: "§6.1", Schema: 1, Shards: mfrShards, Compute: aggShard(aggOnGridNs, true), Render: renderAggBER("tAggOn(ns)")},
		{ID: "fig8", Title: "Fig. 8: HCfirst vs aggressor on-time", Section: "§6.1", Schema: 1, Shards: mfrShards, Compute: aggShard(aggOnGridNs, true), Render: renderAggHC("tAggOn(ns)")},
		{ID: "fig9", Title: "Fig. 9: BER vs aggressor off-time", Section: "§6.2", Schema: 1, Shards: mfrShards, Compute: aggShard(aggOffGridNs, false), Render: renderAggBER("tAggOff(ns)")},
		{ID: "fig10", Title: "Fig. 10: HCfirst vs aggressor off-time", Section: "§6.2", Schema: 1, Shards: mfrShards, Compute: aggShard(aggOffGridNs, false), Render: renderAggHC("tAggOff(ns)")},
		{ID: "fig11", Title: "Fig. 11: HCfirst distribution across rows", Section: "§7.1", Schema: 1, Shards: mfrShards, Compute: fig11Shard, Render: renderFig11},
		{ID: "fig12", Title: "Fig. 12: bit flips across columns", Section: "§7.2", Schema: 1, Shards: mfrShards, Compute: fig12Shard, Render: renderFig12},
		{ID: "fig13", Title: "Fig. 13: column vulnerability vs cross-chip variation", Section: "§7.2", Schema: 1, Shards: mfrShards, Compute: fig13Shard, Render: renderFig13},
		{ID: "fig14", Title: "Fig. 14: subarray min-vs-avg HCfirst regression", Section: "§7.3", Schema: 1, Shards: mfrShards, Compute: fig14Shard, Render: renderFig14},
		{ID: "fig15", Title: "Fig. 15: subarray HCfirst similarity (Bhattacharyya)", Section: "§7.3", Schema: 1, Shards: mfrShards, Compute: fig15Shard, Render: renderFig15},
		{ID: "atk1", Title: "Attack Improvement 1: temperature-targeted row choice", Section: "§8.1", Schema: 1, Shards: mfrShards, Compute: attack1Shard, Render: renderAttack1},
		{ID: "atk2", Title: "Attack Improvement 2: temperature-triggered attack", Section: "§8.1", Schema: 1, Shards: oneShard, Compute: attack2Shard, Render: renderAttack2},
		{ID: "atk3", Title: "Attack Improvement 3: extended aggressor on-time", Section: "§8.1", Schema: 1, Shards: mfrShards, Compute: attack3Shard, Render: renderAttack3},
		{ID: "def1", Title: "Defense Improvement 1: row-aware thresholds", Section: "§8.2", Schema: 1, Shards: mfrShards, Compute: defense1Shard, Render: renderDefense1},
		{ID: "def2", Title: "Defense Improvement 2: subarray-sampled profiling", Section: "§8.2", Schema: 1, Shards: mfrShards, Compute: defense2Shard, Render: renderDefense2},
		{ID: "def3", Title: "Defense Improvement 3: temperature-aware row retirement", Section: "§8.2", Schema: 1, Shards: oneShard, Compute: defense3Shard, Render: renderDefense3},
		{ID: "def4", Title: "Defense Improvement 4: cooling reduces BER", Section: "§8.2", Schema: 1, Shards: mfrShards, Compute: defense4Shard, Render: renderDefense4},
		{ID: "def5", Title: "Defense Improvement 5: row open-time limiting", Section: "§8.2", Schema: 1, Shards: oneShard, Compute: defense5Shard, Render: renderDefense5},
		{ID: "def6", Title: "Defense Improvement 6: column-aware ECC", Section: "§8.2", Schema: 1, Shards: mfrShards, Compute: defense6Shard, Render: renderDefense6},
		{ID: "ddr3", Title: "Extension: Obsv. 2 verified on DDR3 SODIMMs", Section: "§5.1", Schema: 1, Shards: ddr3Shards, Compute: ddr3Shard, Render: renderDDR3},
		{ID: "manysided", Title: "Extension: many-sided (TRRespass-style) attack vs TRR", Section: "§2.3", Schema: 1, Shards: oneShard, Compute: manySidedShard, Render: renderManySided},
		{ID: "interference", Title: "Extension: §4.2 interference-isolation checklist", Section: "§4.2", Schema: 1, Shards: oneShard, Compute: interferenceShard, Render: renderInterference},
		{ID: "defcompare", Title: "Extension: mechanism scorecard (coverage, overhead, area)", Section: "§8.2", Schema: 1, Shards: oneShard, Compute: defCompareShard, Render: renderDefCompare},
		{ID: "wcdp", Title: "Extension: worst-case data pattern survey (§4.2, Table 1)", Section: "§4.2", Schema: 1, Shards: mfrShards, Compute: wcdpShard, Render: renderWCDP},
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			e := e
			return &e
		}
	}
	return nil
}

// moduleSeed derives the seed of module instance i of a manufacturer,
// using the same derivation as fleet campaigns so results line up.
func moduleSeed(cfg Config, mfr string, i int) uint64 {
	return rh.ModuleSeed(cfg.Seed, mfr, i)
}

// benches builds the configured number of module benches for one
// manufacturer.
func benches(cfg Config, mfr string) ([]*rh.Bench, error) {
	n := cfg.Scale.ModulesPerMfr
	if n < 1 {
		n = 1
	}
	out := make([]*rh.Bench, 0, n)
	for i := 0; i < n; i++ {
		b, err := rh.NewBench(rh.BenchConfig{
			Profile:  rh.ProfileByName(mfr),
			Seed:     moduleSeed(cfg, mfr, i),
			Geometry: cfg.Geometry,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// mfrNames lists the manufacturers in paper order.
var mfrNames = []string{"A", "B", "C", "D"}

// sampleRows subsamples the scale's region rows down to at most n,
// evenly spaced, preserving region coverage.
func sampleRows(cfg Config, n int) []int {
	return cfg.Scale.SampleRows(cfg.Geometry, n)
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

// mfrKey is the row/series key prefix of one manufacturer shard.
func mfrKey(mfr string) string { return "mfr=" + mfr }
