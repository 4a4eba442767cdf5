package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// campaign or job share Trace; Parent names the span that caused it.
// Times are nanoseconds since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    bool   `json:"err,omitempty"`
}

// layer is the module a span's name belongs to: "rowhammer" for
// "rowhammer.measure".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer records nothing, so the untraced run pays only the clock
// reads its own latency figures need.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	trace  string
	start  time.Time
}

// start opens a span named layer.call under parent (0 for a root).
func (t *tracer) start(name, trace string, parent uint64) openSpan {
	s := openSpan{t: t, parent: parent, name: name, trace: trace, start: time.Now()}
	if t != nil {
		s.id = t.nextID.Add(1)
	}
	return s
}

// end closes the span, records it when tracing, and returns its length.
func (s openSpan) end(err error) time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, span{
			ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name,
			Start: int64(s.start.Sub(s.t.t0)), End: int64(now.Sub(s.t.t0)), Err: err != nil,
		})
		s.t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// add bumps a counter recorded at a call boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// busy is the summed duration of the spans named name.
func (t *tracer) busy(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// selfTimes returns each layer's self time: the summed length of its
// spans minus the part of each span its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// report prints self time per layer and writes the spans out as JSON
// lines to path.
func (t *tracer) report(w io.Writer, path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "self_time %-10s %10.3f ms\n", l, float64(self[l])/float64(time.Millisecond))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans %d written to %s\n", len(spans), path)
	return nil
}

type spanKey struct{}

// withSpan makes id the parent of spans opened under ctx.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// spanFrom is the span ctx carries, or 0.
func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// reset drops every span and counter recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.counts = nil, map[string]float64{}
	t.mu.Unlock()
}
