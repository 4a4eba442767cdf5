package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	rh "rowhammer"
	"rowhammer/internal/rng"
)

// sweep-warm is the paper's §5 temperature characterization on
// pre-built, warmed benches: candidate sets stay cached and every step
// misses the replay cache with a temperature not seen before, so
// softmc, the Tester and the warm disturb walk do the work and the
// cold build does none.
const (
	sweepModules  = 4      // per manufacturer
	sweepLabSeed  = 0x1ab  // master seed of the fixed module population
	sweepRows     = 8      // fixed victim rows per module
	sweepReps     = 3      // repetitions of BER and of HCFirstMin
	sweepHammers  = 150000 // BER hammer count (§4.2)
	sweepMaxHC    = 512000 // HCfirst search cap (§4.2)
	sweepWarmTemp = 85.0   // °C of the set-up pass that fills the caches
	sweepTempLo   = 50.0   // the study's range, °C
	sweepTempSpan = 40.0
	// sweepRefEvery: the reference pass re-measures every this-many-th
	// step on fresh benches.
	sweepRefEvery = 8
	// sweepTracedPerSecond sizes the traced run, which measures
	// seconds×this steps twice, untraced then traced.
	sweepTracedPerSecond = 6
)

var sweepMfrs = []string{"A", "B", "C", "D"}

// sweepTemps is the step temperature grid: a golden-ratio sequence over
// the study's 50–90 °C range from a seed-derived offset, so no
// temperature repeats. A pure function of the seed.
func sweepTemps(seed uint64, n int) []float64 {
	const phi = 0.6180339887498949
	u := float64(rng.Hash64(seed, 0x5eed)>>11) / (1 << 53)
	out := make([]float64, n)
	for k := range out {
		_, f := math.Modf(u + float64(k)*phi)
		out[k] = sweepTempLo + sweepTempSpan*f
	}
	return out
}

// sweepModule is one warmed device under test.
type sweepModule struct {
	name   string // mfr/index
	bench  *rh.Bench
	tester *rh.Tester
	rows   []int
	pat    rh.PatternKind
}

// stepOut is what one module measured at one temperature.
type stepOut struct {
	flips, probes, berCalls int
	simPs                   int64
	digest                  uint64
}

// newSweepModules builds and warms sweepModules benches per
// manufacturer: the
// worst-case pattern survey, then one pass at sweepWarmTemp that
// builds every victim row's candidate set.
func newSweepModules() ([]*sweepModule, error) {
	geom := rh.TinyGeometry()
	rows := rh.TinyScale().SampleRows(geom, sweepRows)
	var mods []*sweepModule
	for _, mfr := range sweepMfrs {
		for i := 0; i < sweepModules; i++ {
			bn, err := rh.NewBench(rh.BenchConfig{Profile: rh.ProfileByName(mfr), Seed: rh.ModuleSeed(sweepLabSeed, mfr, i), Geometry: geom})
			if err != nil {
				return nil, err
			}
			m := &sweepModule{name: fmt.Sprintf("%s/%d", mfr, i), bench: bn, tester: rh.NewTester(bn), rows: rows}
			if m.pat, err = m.tester.WorstCasePattern(0, rows, sweepHammers); err != nil {
				return nil, err
			}
			if _, err := m.step(sweepWarmTemp, nil, ""); err != nil {
				return nil, err
			}
			mods = append(mods, m)
		}
	}
	return mods, nil
}

// step sets the temperature and runs BER and HCFirstMin on every victim
// row.
func (m *sweepModule) step(temp float64, tr *tracer, trace string) (stepOut, error) {
	var o stepOut
	s := tr.start("thermal.set_temperature", trace, 0)
	err := m.bench.SetTemperature(temp)
	s.end(err)
	if err != nil {
		return o, err
	}
	t0 := m.bench.Exec.Now()
	var h uint64
	for _, row := range m.rows {
		s = tr.start("rowhammer.ber", trace, 0)
		ber, err := m.tester.BER(rh.HammerConfig{VictimPhys: row, Hammers: sweepHammers, Pattern: m.pat}, sweepReps)
		s.end(err)
		if err != nil {
			return o, err
		}
		o.berCalls++
		o.flips += ber.TotalFlips()
		for _, fs := range []rh.FlipSet{ber.Victim, ber.SingleLo, ber.SingleHi} {
			h = rng.Hash64(h, uint64(len(fs.Bits)))
			for _, bit := range fs.Bits {
				h = rng.Hash64(h, uint64(bit))
			}
		}
		s = tr.start("rowhammer.hcfirst", trace, 0)
		hc, err := m.tester.HCFirstMin(rh.HCFirstConfig{VictimPhys: row, MaxHammers: sweepMaxHC, Pattern: m.pat}, sweepReps)
		s.end(err)
		if err != nil {
			return o, err
		}
		o.probes += hc.Probes
		found := uint64(0)
		if hc.Found {
			found = 1
		}
		h = rng.Hash64(h, uint64(hc.HCfirst), found, uint64(hc.Probes))
	}
	o.simPs = int64(m.bench.Exec.Now() - t0)
	o.digest = rng.Hash64(h, uint64(o.simPs))
	return o, nil
}

// sweepStep runs one temperature step over every module, in order.
func sweepStep(mods []*sweepModule, k int, temp float64, tr *tracer) ([]stepOut, error) {
	outs := make([]stepOut, len(mods))
	for i, m := range mods {
		o, err := m.step(temp, tr, fmt.Sprintf("step%d/%s", k, m.name))
		if err != nil {
			return nil, fmt.Errorf("step %d, module %s at %.3f °C: %w", k, m.name, temp, err)
		}
		tr.add("rowhammer.ber_calls", float64(o.berCalls))
		tr.add("rowhammer.hcfirst_probes", float64(o.probes))
		tr.add("rowhammer.flips", float64(o.flips))
		tr.add("softmc.sim_ps", float64(o.simPs))
		outs[i] = o
	}
	return outs, nil
}

func simMS(outs []stepOut) float64 {
	var ps int64
	for _, o := range outs {
		ps += o.simPs
	}
	return float64(ps) / 1e9
}

func runSweepWarm(ctx context.Context, b *bench) error {
	var sets [][]*sweepModule
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		mods, err := newSweepModules()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setup = append(b.setup, time.Since(start))
		// Keep only the two sets the traced run uses; earlier ones are
		// garbage.
		if sets = append(sets, mods); len(sets) > 2 {
			sets = sets[1:]
		}
	}
	if b.trace {
		return sweepTraced(b, sets[0], sets[1])
	}
	mods := sets[len(sets)-1]

	var got [][]stepOut
	var temps []float64
	b.startWindow()
	for k := 0; !b.timeUp(); k++ {
		if k == len(temps) {
			temps = sweepTemps(b.seed, 2*k+64)
		}
		start := time.Now()
		outs, err := sweepStep(mods, k, temps[k], nil)
		if err != nil {
			return err
		}
		b.ops.ok(time.Since(start))
		b.work += simMS(outs)
		got = append(got, outs)
	}
	b.endWindow()
	secs := b.ops.elapsed.Seconds()
	b.report("sim_ms_per_s", b.work/secs, "simulated ms/s")
	b.report("steps_per_s", float64(len(got))/secs, "steps/s")
	return sweepVerify(b, temps[:len(got)], got)
}

// sweepVerify re-measures every sweepRefEvery-th step on freshly built
// benches that replay the same temperature history, and compares flip
// sets, probe counts and simulated time. Untimed.
func sweepVerify(b *bench, temps []float64, got [][]stepOut) error {
	fresh, err := newSweepModules()
	if err != nil {
		return err
	}
	offset := int(b.seed % sweepRefEvery)
	var wg sync.WaitGroup
	var mu sync.Mutex
	sem := make(chan struct{}, b.workers)
	for i, m := range fresh {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			for k, temp := range temps {
				if k%sweepRefEvery != offset {
					if err := m.bench.SetTemperature(temp); err != nil {
						mu.Lock()
						b.mismatch("reference %s step %d: %v", m.name, k, err)
						mu.Unlock()
						return
					}
					continue
				}
				o, err := m.step(temp, nil, "")
				if err != nil || o != got[k][i] {
					mu.Lock()
					b.mismatch("step %d module %s at %.4f °C: warm %+v, fresh reference %+v (%v)", k, m.name, temp, got[k][i], o, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	fmt.Fprintf(b.out, "verified every %dth of %d steps against fresh benches\n", sweepRefEvery, len(temps))
	return nil
}

// sweepTraced measures a fixed number of steps twice, on two identical
// warmed sets: untraced on the first, traced on the second. The two
// passes must measure identical steps; the reference pass then checks
// the first.
func sweepTraced(b *bench, plainSet, tracedSet []*sweepModule) error {
	n := b.seconds * sweepTracedPerSecond
	temps := sweepTemps(b.seed, n)
	var plain, traced [][]stepOut
	var plainWall, tracedWall time.Duration
	for pass, set := range [][]*sweepModule{plainSet, tracedSet} {
		var tr *tracer
		if pass == 1 {
			tr = b.tracer
		}
		start := time.Now()
		for k, temp := range temps {
			outs, err := sweepStep(set, k, temp, tr)
			if err != nil {
				return err
			}
			b.ops.ok(0)
			if pass == 0 {
				plain = append(plain, outs)
			} else {
				traced = append(traced, outs)
			}
		}
		if pass == 0 {
			plainWall = time.Since(start)
		} else {
			tracedWall = time.Since(start)
		}
	}
	for k := range plain {
		for i := range plain[k] {
			if plain[k][i] != traced[k][i] {
				b.mismatch("step %d module %s: traced pass %+v differs from untraced %+v", k, plainSet[i].name, traced[k][i], plain[k][i])
			}
		}
	}
	tr := b.tracer
	berBusy, hcBusy := tr.busy("rowhammer.ber"), tr.busy("rowhammer.hcfirst")
	tests := tr.count("rowhammer.ber_calls")*sweepReps + tr.count("rowhammer.hcfirst_probes")
	b.layers["thermal.set_temperature_ms"] = busyMS(tr, "thermal.set_temperature")
	b.layers["rowhammer.ber_ms"] = busyMS(tr, "rowhammer.ber")
	b.layers["rowhammer.ber_calls"] = tr.count("rowhammer.ber_calls")
	b.layers["rowhammer.hcfirst_ms"] = busyMS(tr, "rowhammer.hcfirst")
	b.layers["rowhammer.hcfirst_probes"] = tr.count("rowhammer.hcfirst_probes")
	b.layers["rowhammer.ns_per_test"] = float64(berBusy+hcBusy) / tests
	b.layers["softmc.sim_ms"] = tr.count("softmc.sim_ps") / 1e9
	b.layers["rowhammer.flips"] = tr.count("rowhammer.flips")
	b.layers["trace.overhead_pct"] = overheadPct(plainWall, tracedWall)
	var digest uint64
	for _, outs := range plain {
		for _, o := range outs {
			digest = rng.Hash64(digest, o.digest)
		}
	}
	fmt.Fprintf(b.out, "traced %d steps: untraced %.3f s, traced %.3f s, step digest %016x\n",
		n, plainWall.Seconds(), tracedWall.Seconds(), digest)
	return sweepVerify(b, temps, plain)
}
