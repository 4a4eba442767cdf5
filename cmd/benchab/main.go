// Command benchab is the benchmark gate: it runs the repository
// benchmark that BENCHMARK.json declares (perfbench, `--trace 0`) A/B
// against a base git ref on this host. Run it from the repository root:
//
//	go run ./cmd/benchab -base HEAD~1 -pairs 10 -seconds 30
//
// The base ref ("parent") is checked out into a temporary git worktree
// under .bench_build/ab/, which also keeps each run's JSON result line.
// Runs go one at a time, -pairs pairs per workload; the two runs of a
// pair share the seed, and which side runs first alternates. For every
// end-to-end metric and workload benchab prints the parent and working
// tree ("change") medians with their quartiles and the pairs the change
// won. It exits 1 when a change median is worse than the parent's, in
// the metric's direction, by more than the metric's bound plus the
// parent's IQR ÷ median; when any run fails or reports correct: false;
// or when the change's failed ÷ attempted share exceeds the parent's.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"text/tabwriter"

	"rowhammer/internal/stats"
)

// config is the part of BENCHMARK.json benchab reads.
type config struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric and its regression bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // allowed relative worsening
}

func loadConfig(path string) (config, error) {
	var c config
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %v", path, err)
	}
	if len(c.Command) == 0 || len(c.Workloads) == 0 || len(c.EndToEnd) == 0 {
		return c, fmt.Errorf("%s: need command, workloads and end_to_end", path)
	}
	for _, m := range c.EndToEnd {
		if (m.Better != "higher" && m.Better != "lower") || !(m.Bound > 0) {
			return c, fmt.Errorf("%s: end_to_end %q needs better higher|lower and a bound > 0", path, m.Name)
		}
	}
	return c, nil
}

// run is one benchmark run: perfbench's JSON result line, and why the
// run failed if it exited non-zero.
type run struct {
	Err       string `json:"-"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// sides names the two trees: the base ref and the working tree.
var sides = [2]string{"parent", "change"}

// row is one metric's A/B comparison on one workload.
type row struct {
	metric         string
	parent, change [3]float64 // q1, median, q3
	won, pairs     int
	allowed        float64 // largest relative worsening that passes
	fail           bool
}

// judge compares one workload's runs: parent[i] and change[i] form
// pair i. It returns one row per metric and the reasons the change
// fails, if any.
func judge(specs []metricSpec, parent, change []run) (rows []row, failures []string) {
	for side, runs := range [2][]run{parent, change} {
		for i, r := range runs {
			switch {
			case r.Err != "":
				failures = append(failures, fmt.Sprintf("%s run %d: %s", sides[side], i+1, r.Err))
			case !r.Correct:
				failures = append(failures, fmt.Sprintf("%s run %d: correct: false", sides[side], i+1))
			}
		}
	}
	if share(change) > share(parent) {
		failures = append(failures, fmt.Sprintf("failed share %.4g%% > parent's %.4g%%", 100*share(change), 100*share(parent)))
	}
	for _, m := range specs {
		var p, c []float64
		r := row{metric: m.Name}
		for i := range parent {
			pv, pok := value(parent[i], m.Name)
			cv, cok := value(change[i], m.Name)
			if !pok || !cok {
				continue
			}
			p, c = append(p, pv), append(c, cv)
			r.pairs++
			if worse(m, cv, pv) < 0 {
				r.won++
			}
		}
		if r.pairs == 0 {
			failures = append(failures, m.Name+": no pair with both runs measured")
			continue
		}
		r.parent, r.change = quartiles(p), quartiles(c)
		med := r.parent[1]
		r.allowed = m.Bound + (r.parent[2]-r.parent[0])/math.Abs(med)
		// Multiplied through by |med|, so a zero parent median fails
		// only a change worse than the parent's spread.
		if worse(m, r.change[1], med) > m.Bound*math.Abs(med)+r.parent[2]-r.parent[0] {
			r.fail = true
			failures = append(failures, fmt.Sprintf("%s: change median %.4g is %s worse than parent %.4g (allowed %s)",
				m.Name, r.change[1], pct(worse(m, r.change[1], med)/math.Abs(med)), med, pct(r.allowed)))
		}
		rows = append(rows, r)
	}
	return rows, failures
}

// worse is how much worse v is than ref in the metric's direction;
// negative when v is better.
func worse(m metricSpec, v, ref float64) float64 {
	if m.Better == "higher" {
		return ref - v
	}
	return v - ref
}

// value is a completed run's value of metric name.
func value(r run, name string) (float64, bool) {
	if r.Err != "" || !r.Correct {
		return 0, false
	}
	m, ok := r.Metrics[name]
	return m.Value, ok
}

// share is the runs' failed ÷ attempted operations.
func share(runs []run) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func quartiles(xs []float64) [3]float64 {
	return [3]float64{stats.Percentile(xs, 25), stats.Percentile(xs, 50), stats.Percentile(xs, 75)}
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// printRows writes one workload's comparison table.
func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tparent median [q1–q3]\tchange median [q1–q3]\tchange\twon\tallowed\t")
	for _, r := range rows {
		verdict := "ok"
		if r.fail {
			verdict = "FAIL"
		}
		fmt.Fprintf(tw, "%s\t%.4g [%.4g–%.4g]\t%.4g [%.4g–%.4g]\t%+.1f%%\t%d/%d\t%s\t%s\n",
			r.metric, r.parent[1], r.parent[0], r.parent[2], r.change[1], r.change[0], r.change[2],
			100*(r.change[1]/r.parent[1]-1), r.won, r.pairs, pct(r.allowed), verdict)
	}
	tw.Flush()
}

func main() {
	base := flag.String("base", "HEAD~1", "git ref the working tree is compared against")
	pairs := flag.Int("pairs", 10, "A/B pairs per workload")
	seconds := flag.Int("seconds", 0, "timed window of each run (0: run_seconds from BENCHMARK.json)")
	flag.Parse()
	if *pairs < 1 || *seconds < 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchab [-base ref] [-pairs n] [-seconds s]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := benchab(ctx, *base, *pairs, *seconds)
	stop()
	os.Exit(code)
}

// benchab runs the A/B comparison and returns the exit code.
func benchab(ctx context.Context, base string, pairs, seconds int) int {
	change, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		return 2
	}
	cfg, err := loadConfig(filepath.Join(change, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		return 2
	}
	if seconds == 0 {
		seconds = cfg.RunSeconds
	}
	// The base worktree lives beside the kept result lines, inside the
	// working tree's .bench_build, so both sides build, write their
	// scratch files and fsync on the same file system. A worktree left
	// by a killed run is cleared first.
	outDir := filepath.Join(change, ".bench_build", "ab")
	parent := filepath.Join(outDir, "base")
	git := func(args ...string) error {
		out, err := exec.Command("git", append([]string{"-C", change}, args...)...).CombinedOutput()
		if err != nil {
			return fmt.Errorf("git %s: %v: %s", args[0], err, out)
		}
		return nil
	}
	if err := os.RemoveAll(outDir); err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		return 2
	}
	_ = git("worktree", "prune") // drops the record of a removed worktree; nothing to report
	if err := git("worktree", "add", "--detach", parent, base); err != nil {
		fmt.Fprintf(os.Stderr, "benchab: checking out %s: %v\n", base, err)
		return 2
	}
	defer func() {
		if err := git("worktree", "remove", "--force", parent); err != nil {
			fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
			os.RemoveAll(parent)
			_ = git("worktree", "prune")
		}
	}()
	fmt.Printf("benchab: parent %s, change = working tree; %d pairs per workload, %d s windows, --trace 0\n", base, pairs, seconds)

	dirs := [2]string{parent, change}
	var failures []string
	for _, wl := range cfg.Workloads {
		runs := [2][]run{make([]run, pairs), make([]run, pairs)}
		for i := 0; i < pairs; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // even pairs run the parent first
				args := append(append([]string{}, cfg.Command[1:]...), "--workload", wl.Name,
					"--seed", strconv.Itoa(i+1), "--seconds", strconv.Itoa(seconds), "--trace", "0")
				fmt.Fprintf(os.Stderr, "benchab: %s pair %d/%d (seed %d): %s\n", wl.Name, i+1, pairs, i+1, sides[side])
				runs[side][i] = runOnce(ctx, dirs[side], cfg.Command[0], args,
					filepath.Join(outDir, fmt.Sprintf("%s-%s-%02d.json", wl.Name, sides[side], i+1)))
				if ctx.Err() != nil {
					fmt.Fprintln(os.Stderr, "benchab: interrupted")
					return 2
				}
			}
		}
		rows, fails := judge(cfg.EndToEnd, runs[0], runs[1])
		fmt.Printf("\n%s (%d pairs; failed share parent %.4g%%, change %.4g%%)\n",
			wl.Name, pairs, 100*share(runs[0]), 100*share(runs[1]))
		printRows(os.Stdout, rows)
		for _, f := range fails {
			failures = append(failures, wl.Name+": "+f)
		}
	}
	fmt.Println()
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("benchab: FAIL " + f)
		}
		return 1
	}
	fmt.Println("benchab: pass: no end-to-end metric worse than its bound plus the parent's spread")
	return 0
}

// runOnce runs the benchmark in dir, keeps its JSON result line in
// keep, and returns the parsed result.
func runOnce(ctx context.Context, dir, name string, args []string, keep string) run {
	var r run
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	out := bytes.TrimSpace(stdout.Bytes())
	line := out[bytes.LastIndexByte(out, '\n')+1:]
	if err := json.Unmarshal(line, &r); err != nil {
		r.Err = fmt.Sprintf("no JSON result line: %v", err)
	}
	if runErr != nil {
		r.Err = runErr.Error()
	}
	if err := os.WriteFile(keep, append(line, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
	}
	return r
}
