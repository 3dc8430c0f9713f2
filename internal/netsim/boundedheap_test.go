package netsim

import (
	"testing"

	"expanse/internal/prof"
)

// BenchmarkBoundedHeapWorld64 is the world-construction memory gate:
// building the scale-64 world (~15M hosts in the sealed columnar plane)
// must keep the process's peak RSS readable and at most 4.5 GiB; the
// seal's transient builder peak is what it bounds. Peak RSS is per
// process, so the gate runs alone, under the soft limit the bound
// assumes:
//
//	GOMEMLIMIT=4GiB go test -run '^$' -bench BoundedHeap -benchtime 1x ./internal/netsim
func BenchmarkBoundedHeapWorld64(b *testing.B) {
	const maxRSS = 4608 << 20
	cfg := DefaultConfig()
	cfg.Scale = 64
	for i := 0; i < b.N; i++ {
		New(cfg)
	}
	rss := prof.PeakRSS()
	b.ReportMetric(float64(rss)/(1<<20), "peak-rss-MiB")
	if rss == 0 || rss > maxRSS {
		b.Fatalf("peak RSS %d bytes outside (0, %d]", rss, maxRSS)
	}
}
