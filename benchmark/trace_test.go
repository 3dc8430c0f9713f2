package main

import (
	"reflect"
	"testing"
)

func TestCovered(t *testing.T) {
	sp := func(a, b int64) Span { return Span{Start: a, End: b} }
	for _, c := range []struct {
		name   string
		lo, hi int64
		ivs    []Span
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, []Span{sp(10, 20), sp(50, 70)}, 30},
		{"overlapping counted once", 0, 100, []Span{sp(10, 40), sp(30, 60)}, 50},
		{"nested", 0, 100, []Span{sp(10, 90), sp(20, 30)}, 80},
		{"clipped to parent", 10, 50, []Span{sp(0, 20), sp(40, 80)}, 20},
		{"outside", 10, 50, []Span{sp(60, 80)}, 0},
		{"unsorted", 0, 100, []Span{sp(60, 70), sp(0, 10)}, 20},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSelfTimes builds a two-process span forest by hand:
//
//	proc 0: root [0,100) ─ a.x [10,40) ─ b.y [20,30)
//	                     └ a.z [50,90)
//	proc 1: root [0,50)  ─ c.w [0,50)
//
// Span IDs repeat across processes, as they do in a real run.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "bench.pipeline", Start: 0, End: 100, Proc: 0},
		{ID: 1, Parent: 0, Name: "a.x", Start: 10, End: 40, Proc: 0},
		{ID: 2, Parent: 1, Name: "b.y", Start: 20, End: 30, Proc: 0},
		{ID: 3, Parent: 0, Name: "a.z", Start: 50, End: 90, Proc: 0},
		{ID: 0, Parent: -1, Name: "bench.pipeline", Start: 0, End: 50, Proc: 1},
		{ID: 1, Parent: 0, Name: "c.w", Start: 0, End: 50, Proc: 1},
	}
	want := []int64{30, 20, 10, 40, 0, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Root self time is the unattributed remainder, so it is left out
	// of the per-layer sums.
	wantLayers := map[string]int64{"a": 60, "b": 10, "c": 50}
	if got := layerSelf(spans); !reflect.DeepEqual(got, wantLayers) {
		t.Errorf("layerSelf = %v, want %v", got, wantLayers)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	tr.Begin("bench.pipeline")
	tr.Begin("core.new")
	tr.End()
	tr.Begin("apd.probe_day")
	tr.Begin("probe.sweep")
	tr.End()
	tr.End()
	tr.End()
	spans := tr.Spans()
	wantParents := []int{-1, 0, 0, 2}
	for i, s := range spans {
		if s.ID != i || s.Parent != wantParents[i] {
			t.Errorf("span %d (%s): id %d parent %d, want id %d parent %d", i, s.Name, s.ID, s.Parent, i, wantParents[i])
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if spans[3].Layer() != "probe" {
		t.Errorf("layer of %q = %q", spans[3].Name, spans[3].Layer())
	}

	var nilTracer *Tracer
	nilTracer.Begin("x")
	if d := nilTracer.End(); d != 0 || nilTracer.Spans() != nil {
		t.Error("a nil tracer must record nothing")
	}
}
