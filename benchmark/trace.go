package main

import (
	"sort"
	"strings"
	"time"
)

// Span is one timed call across a layer boundary. Start and End are
// nanoseconds since the recording process's trace origin; Parent is the
// ID of the enclosing span, or -1 for a root. Proc numbers the process
// of a multi-process workload (restart's saving and resuming runs), so
// IDs and times are comparable only within one Proc.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Proc   int    `json:"proc"`
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Layer is the span name's prefix before the first dot ("apd" for
// "apd.probe_day"): the module the call went into.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Tracer records spans in memory around calls into the program; they are
// written out when the run ends. A nil *Tracer records nothing, so the
// untraced run shares code with the traced one at no cost beyond a nil
// check. Spans nest by call order (Begin/End must pair like a stack)
// and a Tracer belongs to one goroutine.
type Tracer struct {
	origin time.Time
	spans  []Span
	open   []int
}

// NewTracer starts a tracer whose origin is now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.origin)) }

// Begin opens a span as a child of the innermost open span.
func (t *Tracer) Begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id)
}

// End closes the innermost open span and returns its duration.
func (t *Tracer) End() time.Duration {
	if t == nil {
		return 0
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
	return time.Duration(t.spans[id].Dur())
}

// Spans returns the recorded spans in Begin order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children are
// counted once; children are clipped to the parent). Spans are keyed by
// (Proc, ID); the result is indexed like spans.
func selfTimes(spans []Span) []int64 {
	type key struct{ proc, id int }
	children := make(map[key][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Proc, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.Dur() - covered(s.Start, s.End, children[key{s.Proc, s.ID}])
	}
	return out
}

// covered returns how many nanoseconds of [lo, hi) the union of the
// intervals covers.
func covered(lo, hi int64, ivs []Span) int64 {
	type iv struct{ a, b int64 }
	clip := make([]iv, 0, len(ivs))
	for _, s := range ivs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			clip = append(clip, iv{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].a < clip[j].a })
	var total, end int64
	end = lo
	for _, c := range clip {
		if c.b <= end {
			continue
		}
		if c.a < end {
			c.a = end
		}
		total += c.b - c.a
		end = c.b
	}
	return total
}

// layerSelf sums self time per layer over every non-root span; root
// spans are the benchmark's own frames, whose self time is the
// unattributed remainder.
func layerSelf(spans []Span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for i, s := range spans {
		if s.Parent >= 0 {
			out[s.Layer()] += self[i]
		}
	}
	return out
}
