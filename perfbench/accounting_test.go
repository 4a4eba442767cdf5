package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	for p, want := range map[float64]int{90: 100, 99: 1000} {
		n := minSamplesFor(p)
		if n != want || samplesBeyond(n, p) < minTailSamples || samplesBeyond(n-1, p) >= minTailSamples {
			t.Errorf("minSamplesFor(%g) = %d, want %d", p, n, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if percentile(s, 50) != 50 || percentile(s, 90) != 90 || percentile(s, 100) != 100 || percentile(s, 0) != 1 {
		t.Fatalf("nearest-rank percentiles of 1..100: p50 %g p90 %g", percentile(s, 50), percentile(s, 90))
	}
}

// A refused or failed operation counts against the attempts and as
// missing every latency figure.
func TestFailuresCountAgainstAttempts(t *testing.T) {
	o := ops{elapsed: 30 * time.Second}
	for _, ms := range []int{10, 20, 30} {
		o.ok(time.Duration(ms) * time.Millisecond)
	}
	o.fail()
	if o.attempted() != 4 || o.failFrac() != 0.25 {
		t.Fatalf("attempted %d, fail frac %g; want 4 and 0.25", o.attempted(), o.failFrac())
	}
	if got := o.latency(50); got != 20 {
		t.Errorf("p50 = %g ms, want 20", got)
	}
	// p90 of four falls on the failure: it reads as the whole window.
	if got := o.latency(90); got != 30000 {
		t.Errorf("p90 = %g ms, want the 30000 ms window", got)
	}
	if got := o.mean(); got != (10+20+30+30000)/4.0 {
		t.Errorf("mean = %g ms, want the failure counted as the window", got)
	}
	var none ops
	if none.failFrac() != 0 {
		t.Errorf("fail frac with no attempts = %g", none.failFrac())
	}
}

func TestSlotIdleFrac(t *testing.T) {
	if got := slotIdleFrac(3*time.Second, 2*time.Second, 2); got != 0.25 {
		t.Errorf("3 s busy over 2 slots × 2 s = %g idle, want 0.25", got)
	}
	if got := slotIdleFrac(4*time.Second, 2*time.Second, 2); got != 0 {
		t.Errorf("fully busy slots = %g idle, want 0", got)
	}
	if got := slotIdleFrac(time.Second, 0, 2); got != 0 {
		t.Errorf("zero wall = %g, want 0", got)
	}
}

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	if !reflect.DeepEqual(coldSpec(7, 3, 16, 2), coldSpec(7, 3, 16, 2)) {
		t.Error("coldSpec differs between calls with one seed")
	}
	if coldSpec(7, 3, 16, 2).Seed == coldSpec(8, 3, 16, 2).Seed || coldSpec(7, 3, 16, 2).Seed == coldSpec(7, 4, 16, 2).Seed {
		t.Error("coldSpec campaigns share a seed")
	}
	temps := sweepTemps(7, 500)
	if !reflect.DeepEqual(temps, sweepTemps(7, 500)) || reflect.DeepEqual(temps, sweepTemps(8, 500)) {
		t.Error("sweepTemps is not a function of the seed alone")
	}
	if !reflect.DeepEqual(temps[:100], sweepTemps(7, 100)) {
		t.Error("a longer grid does not extend the shorter one")
	}
	seen := map[float64]bool{}
	for _, c := range temps {
		if seen[c] || c < sweepTempLo || c >= sweepTempLo+sweepTempSpan {
			t.Fatalf("temperature %g repeats or leaves the study range", c)
		}
		seen[c] = true
	}
	if !reflect.DeepEqual(serveSpec(7, 1, 4), serveSpec(7, 1, 4)) {
		t.Error("serveSpec differs between calls with one seed")
	}
	seeds := map[uint64]bool{}
	for c := 0; c <= serveClients; c++ {
		for i := 0; i < 200; i++ {
			s := serveSpec(7, c, i).Seed
			if seeds[s] {
				t.Fatalf("serveSpec repeats seed %d: a resubmit would be answered from the store", s)
			}
			seeds[s] = true
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "shard.run", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "campaign.job", Start: 2, End: 5},
		{ID: 3, Parent: 1, Name: "campaign.job", Start: 4, End: 7},
		{ID: 4, Parent: 1, Name: "leasesvc.beat", Start: 9, End: 12},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"shard": 4, "campaign": 6, "leasesvc": 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestMedian(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 || !math.IsNaN(median(nil)) {
		t.Fatal("median")
	}
}
