// Command rhattack demonstrates the paper's three attack improvements
// (§8.1) end to end against one simulated module:
//
//  1. temperature-targeted victim selection,
//  2. a temperature-triggered arming stage, and
//  3. extended aggressor on-time via extra READs.
//
// Usage:
//
//	rhattack -mfr A -seed 7 -temp 80
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	rh "rowhammer"
	"rowhammer/internal/attack"
)

func main() {
	var (
		mfr  = flag.String("mfr", "A", "manufacturer profile (A-D)")
		seed = flag.Uint64("seed", 7, "module seed")
		temp = flag.Float64("temp", 80, "attack temperature (°C)")
	)
	flag.Parse()

	p := rh.ProfileByName(*mfr)
	if p == nil {
		fmt.Fprintf(os.Stderr, "rhattack: unknown manufacturer %q\n", *mfr)
		os.Exit(2)
	}
	bench, err := rh.NewBench(rh.BenchConfig{
		Profile: p,
		Seed:    *seed,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 1024, SubarrayRows: 512,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 64,
		},
	})
	if err != nil {
		fatal(err)
	}
	tester := rh.NewTester(bench)

	// Stage 0: reconnaissance — recover the internal row mapping, then
	// profile candidate rows across temperatures.
	fmt.Println("[0] recovering internal row mapping…")
	scheme, err := tester.RecoverMapping(0, []int{40, 52, 100}, 16)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("    mapping scheme: %s\n", scheme.Name())

	candidates := []int{60, 160, 260, 360, 460, 560, 660, 760}
	fmt.Printf("[1] profiling %d candidate rows at 50 °C, %.0f °C and 90 °C…\n", len(candidates), *temp)
	planner, err := attack.BuildPlanner(context.Background(), tester, 0, candidates, []float64{50, *temp, 90})
	if err != nil {
		fatal(err)
	}
	best, bestHC, err := planner.BestRowAt(*temp)
	if err != nil {
		fatal(err)
	}
	median, err := planner.MedianRowAt(*temp)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("    informed victim: row %d (HCfirst %d at %.0f °C; median row needs %d)\n",
		best.Row, bestHC, *temp, median)

	// Stage 2: plant a temperature trigger.
	fmt.Println("[2] searching for a temperature-trigger cell…")
	sweep, err := tester.TemperatureSweep(rh.TempSweepConfig{
		Bank: 0, Victims: candidates, Hammers: 300_000, Pattern: rh.PatCheckered,
	})
	if err != nil {
		fatal(err)
	}
	trig, err := attack.FindTrigger(sweep, attack.AtOrAbove, 70, 0, 300_000, rh.PatCheckered)
	if err != nil {
		fmt.Printf("    no trigger cell in this module (%v); proceeding unconditionally\n", err)
	} else {
		fmt.Printf("    trigger cell: row %d bit %d (fires at ≥70 °C)\n", trig.Row, trig.Bit)
	}

	// Stage 3: heat the chip (the attacker's IoT device warms up), arm,
	// and fire with extended on-time.
	fmt.Printf("[3] chip reaches %.0f °C…\n", *temp)
	if err := bench.SetTemperature(*temp); err != nil {
		fatal(err)
	}
	if trig != nil {
		armed, err := trig.Probe(tester, 1)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("    trigger probe: armed=%v\n", armed)
		if !armed {
			fmt.Println("    trigger dormant; attack aborted")
			return
		}
	}

	tm := bench.Timing()
	reads := 15
	onNs := attack.OnTimeWithReads(tm, reads).Nanoseconds()
	// Small margin over the profiled HCfirst; the extended on-time
	// reduces the true requirement further (Obsv. 8: ≈−25% at this
	// on-time).
	hammers := bestHC * 11 / 10
	fmt.Printf("[4] firing: double-sided, %d READs/activation (tAggOn %.1f ns), %d hammers…\n",
		reads, onNs, hammers)
	res, err := tester.Hammer(rh.HammerConfig{
		Bank: 0, VictimPhys: best.Row, Hammers: hammers,
		AggOnNs: onNs, Pattern: rh.PatCheckered, Trial: 1,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("    result: %d bit flips in the victim row (%.1f ms of hammering)\n",
		res.Victim.Count(), float64(res.DurationP)/1e9)
	if res.Victim.Count() > 0 {
		fmt.Println("    attack succeeded")
	} else {
		fmt.Println("    no flips (try a different seed or temperature)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rhattack:", err)
	os.Exit(1)
}
