package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to be a measurement rather than one unlucky sample.
const minTailSamples = 10

// tailCandidates are the tail percentiles considered, highest first.
var tailCandidates = []float64{99.9, 99, 90}

// rank is the 1-based nearest-rank position of the p-th percentile of
// n samples. The epsilon keeps 99.9% of 10000 at 9990: the product
// carries a rounding error above the integer.
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// samplesBeyond is how many of n sorted samples lie strictly beyond the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentile returns the highest percentile with at least
// minTailSamples samples beyond it, or 0 when even p90 has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if samplesBeyond(n, p) >= minTailSamples {
			return p
		}
	}
	return 0
}

// minSamplesFor is the smallest sample count whose tail percentile
// reaches p.
func minSamplesFor(p float64) int {
	n := 1
	for samplesBeyond(n, p) < minTailSamples {
		n++
	}
	return n
}

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := rank(len(sorted), p) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of unsorted values.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ops accounts the operations of one timed window: every attempt, the
// latency of each one that succeeded, the failures, and the time spent
// timing. A failed or refused operation counts against the attempts and
// as missing every latency figure, so it enters the latency percentiles
// as +Inf. Safe for concurrent use.
type ops struct {
	mu      sync.Mutex
	lat     []float64 // ms; +Inf for a failure
	failed  int
	elapsed time.Duration // timed so far, pauses excluded
	since   time.Time     // start of the running stretch; zero when paused
}

// resume starts a timed stretch.
func (o *ops) resume() {
	o.mu.Lock()
	o.since = time.Now()
	o.mu.Unlock()
}

// pause ends the running timed stretch, if any.
func (o *ops) pause() {
	o.mu.Lock()
	if !o.since.IsZero() {
		o.elapsed += time.Since(o.since)
		o.since = time.Time{}
	}
	o.mu.Unlock()
}

// running reports whether a timed stretch is open.
func (o *ops) running() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return !o.since.IsZero()
}

// timed is the time spent timing so far.
func (o *ops) timed() time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.since.IsZero() {
		return o.elapsed
	}
	return o.elapsed + time.Since(o.since)
}

func (o *ops) ok(d time.Duration) {
	o.mu.Lock()
	o.lat = append(o.lat, float64(d)/float64(time.Millisecond))
	o.mu.Unlock()
}

func (o *ops) fail() {
	o.mu.Lock()
	o.lat = append(o.lat, math.Inf(1))
	o.failed++
	o.mu.Unlock()
}

func (o *ops) attempted() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.lat)
}

// failFrac is failed ÷ attempted operations.
func (o *ops) failFrac() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.lat) == 0 {
		return 0
	}
	return float64(o.failed) / float64(len(o.lat))
}

// latency returns the p-th latency percentile in ms. A percentile that
// falls on a failure reads as the whole window: the operation was not
// delivered within the run.
func (o *ops) latency(p float64) float64 {
	o.mu.Lock()
	s := append([]float64(nil), o.lat...)
	o.mu.Unlock()
	sort.Float64s(s)
	v := percentile(s, p)
	if math.IsInf(v, 1) {
		return float64(o.elapsed) / float64(time.Millisecond)
	}
	return v
}

// mean returns the mean latency in ms, a failure counting as the whole
// window.
func (o *ops) mean() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	window := float64(o.elapsed) / float64(time.Millisecond)
	sum := 0.0
	for _, v := range o.lat {
		if math.IsInf(v, 1) {
			v = window
		}
		sum += v
	}
	return sum / float64(len(o.lat))
}

// slotIdleFrac is the share of worker-slot time no job occupied:
// 1 − Σ job busy ÷ (workers × wall).
func slotIdleFrac(busy, wall time.Duration, workers int) float64 {
	if wall <= 0 || workers < 1 {
		return 0
	}
	return 1 - float64(busy)/(float64(workers)*float64(wall))
}
