// Tempattack demonstrates the paper's Attack Improvements 1 and 2:
// an attacker who can observe or steer the DRAM temperature
//
//  1. profiles candidate victim rows across temperatures and picks the
//     row whose HCfirst is lowest at the temperature the attack will
//     run at (fewer hammers ⇒ faster, stealthier attack), and
//  2. plants a "thermometer" bit: a cell whose vulnerable temperature
//     range only starts at the target temperature, so a RowHammer
//     probe of that single cell reveals when the chip is hot enough to
//     arm the main attack.
package main

import (
	"context"
	"fmt"
	"log"

	rh "rowhammer"
	"rowhammer/internal/attack"
)

func main() {
	bench, err := rh.NewBench(rh.BenchConfig{
		Profile: rh.ProfileByName("A"),
		Seed:    7,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 1024, SubarrayRows: 512,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 64,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	tester := rh.NewTester(bench)

	// Improvement 1: temperature-resolved victim planning.
	candidates := []int{50, 150, 250, 350, 450, 550, 650, 750}
	planner, err := attack.BuildPlanner(context.Background(), tester, 0, candidates, []float64{50, 70, 90})
	if err != nil {
		log.Fatal(err)
	}
	for _, temp := range []float64{50, 90} {
		best, hc, err := planner.BestRowAt(temp)
		if err != nil {
			log.Fatal(err)
		}
		median, err := planner.MedianRowAt(temp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attack at %2.0f °C: informed choice row %d needs %d hammers; an uninformed (median) row needs %d (%.0f%% more)\n",
			temp, best.Row, hc, median, 100*(float64(median)/float64(hc)-1))
	}

	// Improvement 2: find a cell usable as an "at or above 70 °C"
	// trigger and demonstrate it.
	sweep, err := tester.TemperatureSweep(rh.TempSweepConfig{
		Bank:    0,
		Victims: candidates,
		Hammers: 300_000,
		Pattern: rh.PatCheckered,
	})
	if err != nil {
		log.Fatal(err)
	}
	trig, err := attack.FindTrigger(sweep, attack.AtOrAbove, 70, 0, 300_000, rh.PatCheckered)
	if err != nil {
		fmt.Println("no trigger cell in this module sample:", err)
		return
	}
	fmt.Printf("trigger cell: row %d bit %d (flips only at ≥70 °C)\n", trig.Row, trig.Bit)
	for _, temp := range []float64{55, 65, 75, 85} {
		if err := bench.SetTemperature(temp); err != nil {
			log.Fatal(err)
		}
		fired, err := trig.Probe(tester, 1)
		if err != nil {
			log.Fatal(err)
		}
		state := "dormant"
		if fired {
			state = "ARMED"
		}
		fmt.Printf("  chip at %2.0f °C → trigger %s\n", temp, state)
	}
}
