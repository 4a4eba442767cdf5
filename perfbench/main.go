// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed number of seconds, checks the outputs against an
// untimed reference, and prints the metrics by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around the benchmark's calls into each module and
// prints the per-layer metrics instead. README.md in this directory
// lists the workloads, the metrics and what each should move.
//
// Build and run it from the repository root with run.sh:
//
//	bash perfbench/run.sh --workload sweep-warm --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// unit is what throughput_per_s counts on this workload.
	unit string
	run  func(ctx context.Context, b *bench) error
}

var workloads = []workload{
	{"campaign-cold", "every job builds a fresh module, so the cold fault-model build dominates", "module jobs", runCampaignCold},
	{"sweep-warm", "pre-built benches and cached candidates: softmc, Tester and the warm walk do the work", "simulated DRAM ms", runSweepWarm},
	{"serve-fleet", "in-process rhserved with two fleet workers: placement, lease and shard layers set latency", "campaigns", runServeFleet},
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, reported on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_mean_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics of the traced run. A workload that makes no
// call into a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"rowhammer.new_bench_ms", "ms"},
	{"rowhammer.measure_ms", "ms"},
	{"campaign.checkpoint_append_ms", "ms"},
	{"campaign.checkpoint_appends", "count"},
	{"campaign.job_ms", "ms"},
	{"campaign.slot_idle_frac", "fraction"},
	{"campaign.retries", "count"},
	{"thermal.set_temperature_ms", "ms"},
	{"rowhammer.ber_ms", "ms"},
	{"rowhammer.ber_calls", "count"},
	{"rowhammer.hcfirst_ms", "ms"},
	{"rowhammer.hcfirst_probes", "count"},
	{"rowhammer.ns_per_test", "ns"},
	{"softmc.sim_ms", "ms"},
	{"rowhammer.flips", "count"},
	{"server.submit_ms", "ms"},
	{"server.status_polls", "count"},
	{"server.artifact_get_ms", "ms"},
	{"server.http_errors", "count"},
	{"leasesvc.acquire_ms", "ms"},
	{"leasesvc.acquire_count", "count"},
	{"leasesvc.acquire_errors", "count"},
	{"leasesvc.beat_ms", "ms"},
	{"leasesvc.beat_count", "count"},
	{"leasesvc.beat_errors", "count"},
	{"leasesvc.release_ms", "ms"},
	{"leasesvc.release_count", "count"},
	{"leasesvc.release_errors", "count"},
	{"leasesvc.worker_beat_ms", "ms"},
	{"leasesvc.worker_beat_count", "count"},
	{"leasesvc.worker_beat_errors", "count"},
	{"shard.placement_wait_ms", "ms"},
	{"shard.run_ms", "ms"},
	{"shard.publish_wait_ms", "ms"},
	{"shard.runs_per_shard", "ratio"},
	{"trace.overhead_pct", "%"},
}

// bench is one benchmark run: its settings and what the workload
// measured.
type bench struct {
	seed    uint64
	seconds int
	window  time.Duration
	trace   bool
	dir     string    // scratch directory of this run
	out     io.Writer // report lines
	workers int       // nproc: the cap on load-generating goroutines

	setup      []time.Duration // each repetition of the workload's set-up
	ops        ops             // the timed window's operations
	work       float64         // throughput numerator over the window
	hwmMB      float64         // VmHWM at the end of the timed window
	rssSamples []float64       // VmRSS sampled through the timed window, MB
	stopRSS    func() []float64
	mismatches []string // correctness failures
	layers     map[string]float64
	tracer     *tracer
}

// mismatch records a correctness failure.
func (b *bench) mismatch(format string, args ...any) {
	b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
}

// report prints one metric line.
func (b *bench) report(name string, v float64, unit string) {
	fmt.Fprintf(b.out, "metric %-24s %14.4f %s\n", name, v, unit)
}

// timeUp reports whether the timed window is over: the time is spent
// and the window holds enough operations for a p90 with ten samples
// beyond it.
func (b *bench) timeUp() bool {
	return b.ops.timed() >= b.window && b.ops.attempted() >= minSamplesFor(90)
}

// startWindow opens the timed window.
func (b *bench) startWindow() {
	b.ops = ops{}
	b.ops.resume()
	b.stopRSS = sampleRSS(rssEvery, b.ops.running)
}

// endWindow closes the timed window and reads the memory figures.
func (b *bench) endWindow() {
	b.ops.pause()
	b.rssSamples = b.stopRSS()
	b.hwmMB = peakRSSMB()
}

// rssEvery is the resident-set sampling period.
const rssEvery = 20 * time.Millisecond

// sampleRSS samples the resident set every period while active reports
// true, until the returned stop is called; stop returns the samples in
// MB.
func sampleRSS(period time.Duration, active func() bool) func() []float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var out []float64
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if active() {
					out = append(out, rssMB())
				}
			case <-stop:
				// One last sample keeps a window shorter than a period
				// from reporting nothing.
				done <- append(out, rssMB())
				return
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

// rssMB reads the current resident set in MB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// setupReps is how many times each workload sets up; setup_s is their
// median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: campaign-cold, sweep-warm or serve-fleet")
		seed    = flag.Uint64("seed", 1, "workload seed; the inputs are a pure function of it")
		seconds = flag.Int("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for scratch files")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (campaign-cold, sweep-warm, serve-fleet), -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	os.Exit(run(w, *seed, *seconds, *trace == 1, *workdir))
}

func run(w *workload, seed uint64, seconds int, trace bool, workdir string) int {
	dir, err := os.MkdirTemp(workdir, "run-"+w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	b := &bench{
		seed: seed, seconds: seconds, window: time.Duration(seconds) * time.Second,
		trace: trace, dir: dir, out: out, workers: runtime.NumCPU(),
		layers: map[string]float64{},
	}
	if trace {
		b.tracer = newTracer()
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%t\n", w.name, seed, seconds, trace)
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Fprintf(out, "why %s\n", w.why)

	if err := w.run(context.Background(), b); err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}

	res := result{
		Correct:   len(b.mismatches) == 0,
		Attempted: b.ops.attempted(),
		Failed:    b.ops.failed,
		Metrics:   map[string]metric{},
	}
	if trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{b.layers[m.name], m.unit}
		}
		if err := b.tracer.report(out, filepath.Join(workdir, "spans-"+w.name+"-"+strconv.FormatUint(seed, 10)+".jsonl")); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
	} else {
		secs := b.ops.elapsed.Seconds()
		vals := map[string]float64{
			"setup_s":          median(durationsSeconds(b.setup)),
			"throughput_per_s": b.work / secs,
			"latency_mean_ms":  b.ops.mean(),
			"latency_p90_ms":   b.ops.latency(90),
			"rss_mb":           median(b.rssSamples),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		fmt.Fprintf(out, "window %.3f s, %d ops (%d failed), tail percentile with >=%d samples beyond: p%g\n",
			secs, res.Attempted, res.Failed, minTailSamples, tailPercentile(res.Attempted))
		b.report("op_fail_frac", b.ops.failFrac(), "failed/attempted")
		b.report("latency_p50_ms", b.ops.latency(50), "ms")
		b.report("peak_rss_mb", b.hwmMB, "MB")
		fmt.Fprintf(out, "throughput_per_s counts %s per host second\n", w.unit)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.report(n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, m := range b.mismatches {
		fmt.Fprintf(out, "MISMATCH %s\n", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procLine("/proc/self/status", "VmHWM:"), " kB"), 64)
	return kb / 1024
}

// cpuModel names the host CPU for the result stamp.
func cpuModel() string {
	if m := strings.TrimPrefix(procLine("/proc/cpuinfo", "model name"), ":"); m != "" {
		return strings.TrimSpace(m)
	}
	return runtime.GOARCH
}

// procLine returns the rest of the first line of a /proc file that
// starts with key, trimmed, or "" when there is none.
func procLine(path, key string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}
