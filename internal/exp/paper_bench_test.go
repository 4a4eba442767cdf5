// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark computes the experiment's merged artifact
// through the registry — the artifact rhchar, the goldens and fleet
// campaigns publish — at a reduced-but-representative scale, and
// reports its headline metric(s) via b.ReportMetric, so
//
//	go test -run '^$' -bench . -benchtime 1x ./internal/exp/
//
// prints a compact paper-vs-measured summary. EXPERIMENTS.md records
// the comparison.
package exp

import (
	"testing"

	rh "rowhammer"
)

// benchConfig is the scale used by the benchmark harness: larger than
// the unit-test scale (stable statistics) but minutes, not hours.
func benchConfig() Config {
	return Config{
		Scale: rh.Scale{
			RowsPerRegion: 12,
			Regions:       3,
			Hammers:       150_000,
			MaxHammers:    512_000,
			Repetitions:   2,
			ModulesPerMfr: 2,
		},
		Seed: 0xbe7c,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 1024, SubarrayRows: 256,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 32,
		},
	}
}

func BenchmarkTable2Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tot := row(b, run(b, "table2", benchConfig()), "totals")
		b.ReportMetric(tot.V("ddr4_chips"), "ddr4-chips")
		b.ReportMetric(tot.V("ddr3_chips"), "ddr3-chips")
	}
}

func BenchmarkTable3ContinuousRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "table3", benchConfig())
		// Paper: 99.1/98.9/98.0/99.2 %.
		for _, mfr := range a.Shards {
			b.ReportMetric(100*row(b, a, mfrKey(mfr)).V("no_gap_frac"), "nogap-pct-"+mfr)
		}
	}
}

func BenchmarkFig3TempRangeClusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "fig3", benchConfig())
		// Paper full-range shares: A 14.2, B 17.4, C 9.6, D 29.8 %.
		for _, mfr := range a.Shards {
			m, err := clusterFromArtifact(a, mfrKey(mfr))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*m.FullRangeFraction(), "fullrange-pct-"+mfr)
		}
	}
}

func BenchmarkFig4BERvsTemperature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "fig4", benchConfig())
		// Paper at 90 °C: A ≈ +50…100%, B ≈ −20%, C ≈ +40%, D ≈ +200%.
		for _, mfr := range a.Shards {
			b.ReportMetric(100*fig4TrendAt(a, mfr, 90), "ber-change90-pct-"+mfr)
		}
	}
}

func BenchmarkFig5HCFirstTempChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "fig5", benchConfig())
		// Paper crossings 50→90: A P45, B P67, C P71, D P40;
		// magnitude ratios ≈ 3.8–4.3×.
		for _, mfr := range a.Shards {
			r := row(b, a, mfrKey(mfr))
			b.ReportMetric(r.V("cross90"), "crossP90-"+mfr)
			b.ReportMetric(r.V("magnitude_ratio"), "magratio-"+mfr)
		}
	}
}

func BenchmarkFig6TimingTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "fig6", benchConfig())
		b.ReportMetric(row(b, a, "test=aggressor-on").V("on_ns"), "tAggOn-ns")
		b.ReportMetric(row(b, a, "test=aggressor-off").V("off_ns"), "tAggOff-ns")
	}
}

func BenchmarkFig7BERvsAggOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := aggResult(run(b, "fig7", benchConfig()))
		// Paper BER ×10.2/3.1/4.4/9.6 at 154.5 ns.
		for j, mfr := range res.Mfrs {
			b.ReportMetric(res.MeanBERRatio(j), "ber-ratio-"+mfr)
		}
	}
}

func BenchmarkFig8HCFirstVsAggOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := aggResult(run(b, "fig8", benchConfig()))
		// Paper HCfirst −40.0/−28.3/−32.7/−37.3 %.
		for j, mfr := range res.Mfrs {
			b.ReportMetric(100*res.MeanHCChange(j), "hc-change-pct-"+mfr)
		}
	}
}

func BenchmarkFig9BERvsAggOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := aggResult(run(b, "fig9", benchConfig()))
		// Paper BER ÷6.3/2.9/4.9/5.0 at 40.5 ns.
		for j, mfr := range res.Mfrs {
			b.ReportMetric(res.MeanBERRatio(j), "ber-ratio-"+mfr)
		}
	}
}

func BenchmarkFig10HCFirstVsAggOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := aggResult(run(b, "fig10", benchConfig()))
		// Paper HCfirst +33.8/+24.7/+50.1/+33.7 %.
		for j, mfr := range res.Mfrs {
			b.ReportMetric(100*res.MeanHCChange(j), "hc-change-pct-"+mfr)
		}
	}
}

func BenchmarkFig11RowVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "fig11", benchConfig())
		// Paper (avg across mfrs): P99 ≥1.6×, P95 ≥2.0×, P90 ≥2.2×.
		for _, mfr := range a.Shards {
			b.ReportMetric(row(b, a, mfrKey(mfr)).V("ratio_p95"), "p95-ratio-"+mfr)
		}
	}
}

func BenchmarkFig12ColumnHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "fig12", benchConfig())
		// Paper zero-flip columns: A 27.8%, B ~0%, C 31.1%, D 9.96%.
		for _, mfr := range a.Shards {
			b.ReportMetric(100*row(b, a, mfrKey(mfr)).V("zero_frac"), "zerocol-pct-"+mfr)
		}
	}
}

func BenchmarkFig13ColumnClusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "fig13", benchConfig())
		// Paper: B design-dominated (CV≈0 mass 50.9%), A process-
		// dominated (CV≈1 mass 59.8%).
		for _, mfr := range a.Shards {
			b.ReportMetric(row(b, a, mfrKey(mfr)).V("mean_cv"), "mean-crosschip-cv-"+mfr)
		}
	}
}

func BenchmarkFig14SubarrayRegression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "fig14", benchConfig())
		// Paper slopes: 0.46/0.41/0.42/0.67.
		for _, mfr := range a.Shards {
			r := row(b, a, mfrKey(mfr))
			b.ReportMetric(r.V("slope"), "slope-"+mfr)
			b.ReportMetric(r.V("r2"), "r2-"+mfr)
		}
	}
}

func BenchmarkFig15SubarrayBD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "fig15", benchConfig())
		// Paper (Mfr C): P5 same ≈0.975, P5 different ≈0.66.
		for _, mfr := range a.Shards {
			b.ReportMetric(fig15P5(a.SeriesPoints(mfrKey(mfr)+"/same")), "p5-same-"+mfr)
			b.ReportMetric(fig15P5(a.SeriesPoints(mfrKey(mfr)+"/diff")), "p5-diff-"+mfr)
		}
	}
}

func BenchmarkAttackImprovement1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "atk1", benchConfig())
		// Paper: informed choice can halve the required hammer count.
		for _, mfr := range a.Shards {
			b.ReportMetric(100*row(b, a, mfrKey(mfr)).V("reduction"), "hc-reduction-pct-"+mfr)
		}
	}
}

func BenchmarkAttackImprovement2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := row(b, run(b, "atk2", benchConfig()), "trigger")
		// Paper: exact-T cells ≈0.3%, at-or-above ≈90% of vulnerable
		// cells.
		b.ReportMetric(100*r.V("exact_frac"), "exactT-cells-pct")
		b.ReportMetric(100*r.V("above_frac"), "aboveT-cells-pct")
	}
}

func BenchmarkAttackImprovement3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "atk3", benchConfig())
		// Paper: BER ×3.2–10.2, HCfirst −36% average. Manufacturers
		// without a usable sample at this scale have no result row.
		for _, mfr := range a.Shards {
			if r := a.Row(mfrKey(mfr) + "/res"); r != nil {
				b.ReportMetric(100*r.V("reduction"), "hc-reduction-pct-"+mfr)
				b.ReportMetric(r.V("ber_ratio"), "ber-ratio-"+mfr)
			}
		}
	}
}

func BenchmarkDefenseImprovement1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "def1", benchConfig())
		// Paper: Graphene −80%, BlockHammer −33% area.
		for _, mfr := range a.Shards {
			r := row(b, a, mfrKey(mfr))
			b.ReportMetric(100*r.V("graphene_red"), "graphene-saving-pct-"+mfr)
			b.ReportMetric(100*r.V("bh_red"), "blockhammer-saving-pct-"+mfr)
		}
	}
}

func BenchmarkDefenseImprovement2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "def2", benchConfig())
		// Paper: ≥10× profiling speedup with approximate estimates.
		// Manufacturers without the modules for the transfer study
		// have no row.
		for _, mfr := range a.Shards {
			if r := a.Row(mfrKey(mfr)); r != nil {
				b.ReportMetric(r.V("speedup"), "speedup-"+mfr)
				b.ReportMetric(100*r.V("rel_error"), "est-error-pct-"+mfr)
			}
		}
	}
}

func BenchmarkDefenseImprovement3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := row(b, run(b, "def3", benchConfig()), "retirement")
		b.ReportMetric(r.V("retired_85"), "retired-rows-85C")
		b.ReportMetric(100*r.V("coverage"), "coverage-pct")
	}
}

func BenchmarkDefenseImprovement4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "def4", benchConfig())
		// Paper: cooling 90→50 °C cuts Mfr A BER by ≈25%.
		for _, mfr := range a.Shards {
			b.ReportMetric(100*row(b, a, mfrKey(mfr)).V("ber_reduction"), "cooling-ber-cut-pct-"+mfr)
		}
	}
}

func BenchmarkDefenseImprovement5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := row(b, run(b, "def5", benchConfig()), "limiter")
		b.ReportMetric(r.V("extended_hc"), "attack-hcfirst")
		b.ReportMetric(r.V("limited_hc"), "limited-hcfirst")
		b.ReportMetric(100*r.V("benign_slowdown"), "benign-slowdown-pct")
	}
}

func BenchmarkDefenseImprovement6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := run(b, "def6", benchConfig())
		for _, mfr := range a.Shards {
			b.ReportMetric(row(b, a, mfrKey(mfr)).V("exposure_ratio"), "exposure-ratio-"+mfr)
		}
	}
}
