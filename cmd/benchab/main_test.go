package main

import (
	"strings"
	"testing"
)

// specs mirrors BENCHMARK.json's end-to-end metrics.
var specs = []metricSpec{
	{Name: "throughput_per_s", Better: "higher", Bound: 0.25},
	{Name: "latency_mean_ms", Better: "lower", Bound: 0.25},
}

// sample builds n correct runs whose metrics are base scaled by the
// factors, with a small spread from run to run.
func sample(n int, throughput, latency float64) []run {
	spread := []float64{0.98, 1.0, 1.02, 0.99, 1.01}
	runs := make([]run, n)
	for i := range runs {
		s := spread[i%len(spread)]
		runs[i] = run{Correct: true, Attempted: 1000}
		runs[i].Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{
			"throughput_per_s": {throughput * s},
			"latency_mean_ms":  {latency * s},
		}
	}
	return runs
}

// failing returns judge's failures that mention what.
func failing(t *testing.T, parent, change []run, what string) []string {
	t.Helper()
	_, failures := judge(specs, parent, change)
	var out []string
	for _, f := range failures {
		if strings.Contains(f, what) {
			out = append(out, f)
		}
	}
	return out
}

func TestJudge(t *testing.T) {
	parent := sample(5, 100, 10)
	for _, tc := range []struct {
		name   string
		change []run
		fails  string // "" = the change passes
	}{
		{"identical samples pass", sample(5, 100, 10), ""},
		{"throughput 40% lower fails", sample(5, 60, 10), "throughput_per_s"},
		{"latency 40% higher fails", sample(5, 100, 14), "latency_mean_ms"},
		{"latency 40% lower passes", sample(5, 100, 6), ""},
		{"throughput 40% higher passes", sample(5, 140, 10), ""},
		// 26% worse: past the 25% bound, inside bound plus the
		// parent's IQR ÷ median (2%).
		{"worse within bound plus spread passes", sample(5, 74, 12.6), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, failures := judge(specs, parent, tc.change)
			if len(rows) != len(specs) {
				t.Fatalf("%d rows, want %d", len(rows), len(specs))
			}
			if tc.fails == "" {
				if len(failures) > 0 {
					t.Fatalf("failures %q, want none", failures)
				}
				return
			}
			if len(failures) != 1 || !strings.HasPrefix(failures[0], tc.fails) {
				t.Fatalf("failures %q, want one on %s", failures, tc.fails)
			}
		})
	}
}

func TestJudgeCountsPairsWon(t *testing.T) {
	rows, _ := judge(specs, sample(5, 100, 10), sample(5, 110, 9))
	for _, r := range rows {
		if r.won != 5 || r.pairs != 5 {
			t.Errorf("%s: won %d/%d, want 5/5", r.metric, r.won, r.pairs)
		}
	}
}

func TestJudgeFailsIncorrectOrFailedRun(t *testing.T) {
	change := sample(5, 100, 10)
	change[2].Correct = false
	if f := failing(t, sample(5, 100, 10), change, "correct: false"); len(f) != 1 {
		t.Fatalf("correct: false failures %q, want one", f)
	}
	change = sample(5, 100, 10)
	change[0].Err = "exit status 2"
	if f := failing(t, sample(5, 100, 10), change, "exit status 2"); len(f) != 1 {
		t.Fatalf("non-zero exit failures %q, want one", f)
	}
	parent := sample(5, 100, 10)
	parent[4].Correct = false
	if f := failing(t, parent, sample(5, 100, 10), "parent run 5"); len(f) != 1 {
		t.Fatalf("parent correct: false failures %q, want one", f)
	}
}

func TestJudgeFailsHigherFailedShare(t *testing.T) {
	parent, change := sample(5, 100, 10), sample(5, 100, 10)
	parent[0].Failed = 1
	if f := failing(t, parent, change, "failed share"); len(f) != 0 {
		t.Fatalf("lower failed share fails: %q", f)
	}
	change[1].Failed = 2
	if f := failing(t, parent, change, "failed share"); len(f) != 1 {
		t.Fatalf("higher failed share failures %q, want one", f)
	}
}

func TestBenchmarkJSONParses(t *testing.T) {
	cfg, err := loadConfig("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.EndToEnd) == 0 || len(cfg.Workloads) == 0 || cfg.RunSeconds < 1 {
		t.Fatalf("config %+v lacks metrics, workloads or run_seconds", cfg)
	}
	for _, m := range cfg.EndToEnd {
		if m.Bound <= 0 || m.Bound >= 1 {
			t.Errorf("%s: bound %g, want a fraction in (0, 1)", m.Name, m.Bound)
		}
	}
}
