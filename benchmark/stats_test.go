package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {75, 32.5}, {90, 37},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("single-sample median = %g, want 7", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("empty sample must give NaN (a metric that was not measured)")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g, want 3", got)
	}
	if got := sum([]float64{1, 2, 6}); got != 9 {
		t.Errorf("sum = %g, want 9", got)
	}
}

func TestWorldSeed(t *testing.T) {
	if got := worldSeed(0); got != 0x16C18 {
		t.Errorf("seed 0 runs world %#x, want the default world 0x16C18", got)
	}
	n := int64(len(worldOffsets))
	for _, s := range []int64{1, 7, n - 1, n, n + 3, -1, -n - 2} {
		w := worldSeed(s)
		if w != worldSeed(s+n) || w != worldSeed(s-n) {
			t.Errorf("seed %d: world %#x does not wrap with period %d", s, w, n)
		}
	}
	seen := map[int64]bool{}
	for i := int64(0); i < n; i++ {
		seen[worldSeed(i)] = true
	}
	if len(seen) != int(n) {
		t.Errorf("seeds 0..%d select %d distinct worlds, want %d", n-1, len(seen), n)
	}
}
