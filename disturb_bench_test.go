// Benchmarks for the batched disturb-evaluation hot path: one
// DisturbBatch call evaluating a row's candidate set across a whole
// trial batch, and the bitplane flip application that turns the
// emitted masks into stored data. Both must stay allocation-free in
// steady state: TestDisturbBatchSteadyStateZeroAlloc,
// TestApplyFlipMaskZeroAlloc and TestHammerSteadyStateZeroAlloc are
// the floor, on any host.
package rowhammer_test

import (
	"testing"

	rh "rowhammer"
	"rowhammer/internal/dram"
	"rowhammer/internal/faultmodel"
)

// TestHammerSteadyStateZeroAlloc pins the arena-reuse contract: after
// one warmup call sizes the scratch buffers, a full HammerInto cycle
// (pattern write, bulk hammer, three readbacks) allocates nothing.
func TestHammerSteadyStateZeroAlloc(t *testing.T) {
	bench, err := rh.NewBench(rh.BenchConfig{
		Profile: rh.ProfileByName("A"),
		Seed:    61,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 512, SubarrayRows: 256,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rh.NewTester(bench)
	cfg := rh.HammerConfig{
		Bank: 0, VictimPhys: 100, Hammers: 512_000, Pattern: rh.PatCheckered, Trial: 1,
	}
	var res rh.HammerResult
	if err := tr.HammerInto(cfg, &res); err != nil {
		t.Fatal(err)
	}
	if res.Victim.Count() == 0 {
		t.Fatal("warmup produced no flips; test vacuous")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := tr.HammerInto(cfg, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state HammerInto allocates %.1f objects per run, want 0", allocs)
	}
}

// benchLedger builds a distance-1 ledger at the reference timings and
// 50 °C, the shape every double-sided hammer run produces.
func benchLedger(hammers int64) *dram.RowLedger {
	led := &dram.RowLedger{}
	d := &led.Dist[0]
	d.Count = hammers
	d.SumOn = dram.Picos(hammers) * dram.PicosFromNs(34.5)
	d.SumOff = dram.Picos(hammers) * dram.PicosFromNs(16.5)
	d.SumTempMilliC = hammers * 50_000
	return led
}

// disturbBatchFixture is one row of a 4 Ki-bit-row module under a
// 512K-hammer double-sided ledger, with per-salt outputs for the
// paper's min-of-5 trial batch.
type disturbBatchFixture struct {
	model *faultmodel.Model
	ctx   dram.DisturbContext
	salts []uint64
	masks [][]uint64
	flips []int
}

func newDisturbBatchFixture(tb testing.TB) *disturbBatchFixture {
	geo := dram.Geometry{
		Banks: 1, RowsPerBank: 512, SubarrayRows: 256,
		Chips: 8, ChipWidth: 8, ColumnsPerRow: 64,
	}
	m, err := faultmodel.NewModel(faultmodel.Config{
		Profile: faultmodel.MfrA(), ModuleSeed: 61, Geometry: geo,
	})
	if err != nil {
		tb.Fatal(err)
	}
	f := &disturbBatchFixture{model: m, salts: []uint64{1, 2, 3, 4, 5}}
	f.masks = make([][]uint64, len(f.salts))
	for i := range f.masks {
		f.masks[i] = make([]uint64, geo.RowWords())
	}
	f.flips = make([]int, len(f.salts))
	agg := make([]uint64, geo.RowWords())
	for i := range agg {
		agg[i] = ^uint64(0)
	}
	f.ctx = dram.DisturbContext{
		Bank: 0, Row: 100, Ledger: benchLedger(512_000),
		Data: make([]uint64, geo.RowWords()), Geometry: geo, Up: agg, Down: agg,
	}
	return f
}

func (f *disturbBatchFixture) walk() {
	f.model.DisturbBatch(f.ctx, f.salts, f.masks, f.flips)
}

// TestDisturbBatchSteadyStateZeroAlloc: once the row's candidate set
// is cached, a trial-batched walk allocates nothing.
func TestDisturbBatchSteadyStateZeroAlloc(t *testing.T) {
	f := newDisturbBatchFixture(t)
	f.walk()
	if f.flips[0] == 0 {
		t.Fatal("warmup produced no flips; test vacuous")
	}
	if allocs := testing.AllocsPerRun(10, f.walk); allocs != 0 {
		t.Fatalf("steady-state DisturbBatch allocates %.1f objects per run, want 0", allocs)
	}
}

// TestApplyFlipMaskZeroAlloc: applying a flip bitplane allocates
// nothing.
func TestApplyFlipMaskZeroAlloc(t *testing.T) {
	data := make([]uint64, 1024)
	mask := make([]uint64, 1024)
	for i := range mask {
		mask[i] = 0x8000000000000001
	}
	if allocs := testing.AllocsPerRun(10, func() { dram.ApplyFlipMask(data, mask) }); allocs != 0 {
		t.Fatalf("ApplyFlipMask allocates %.1f objects per run, want 0", allocs)
	}
}

func BenchmarkDisturbBatch(b *testing.B) {
	f := newDisturbBatchFixture(b)
	// Warm up so the timed loop measures the batched walk, not the
	// one-time candidate-set build.
	f.walk()
	// One op is a block of walks: at the Makefile's small -benchtime a
	// single ~50 µs walk would drown in scheduler jitter, and the
	// committed baseline gates this number.
	const walksPerOp = 16
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		for k := 0; k < walksPerOp; k++ {
			f.walk()
			total += f.flips[0]
		}
	}
	if total == 0 {
		b.Fatal("no flips; benchmark vacuous")
	}
}

func BenchmarkFlipApply(b *testing.B) {
	const (
		words        = 1024 // 8 KiB row
		appliesPerOp = 512  // block the ~300 ns kernel above timer jitter
	)
	data := make([]uint64, words)
	mask := make([]uint64, words)
	for i := range mask {
		mask[i] = 0x8000000000000001
	}
	b.SetBytes(words * 8 * appliesPerOp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < appliesPerOp; k++ {
			dram.ApplyFlipMask(data, mask)
		}
	}
	if data[0] != 0 && data[0] != mask[0] {
		b.Fatal("mask application corrupted data")
	}
}
