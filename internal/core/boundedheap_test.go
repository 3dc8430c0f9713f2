package core

import (
	"runtime"
	"testing"

	"expanse/internal/prof"
)

// BenchmarkBoundedHeapPipeline is the pipeline's memory gate: a scale-4,
// 14-day run that checkpoints every day, then a resume from the last
// checkpoint whose epoch must match the saving run's digest. It fails
// when the process's peak RSS is unreadable or above 4 GiB. Peak RSS is
// per process, so the gate runs alone, under the soft limit the bound
// assumes:
//
//	GOMEMLIMIT=3GiB go test -run '^$' -bench BoundedHeap -benchtime 1x ./internal/core
func BenchmarkBoundedHeapPipeline(b *testing.B) {
	const (
		days   = 14
		maxRSS = 4 << 30
	)
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Sim.Scale = 4
		cfg.Workers = 2
		cfg.SnapshotDir = b.TempDir()
		want := checkpointedRun(b, cfg, days)
		// The saving pipeline is unreachable here: collect it so the peak
		// is the larger of the two pipelines, not their sum.
		runtime.GC()
		_, ep, err := Resume(cfg, cfg.SnapshotDir, days-1)
		if err != nil {
			b.Fatal(err)
		}
		if got := ep.Digest(); got != want {
			b.Fatalf("resumed epoch %d digest %s != saving run's %s", days-1, got, want)
		}
	}
	rss := prof.PeakRSS()
	b.ReportMetric(float64(rss)/(1<<20), "peak-rss-MiB")
	if rss == 0 || rss > maxRSS {
		b.Fatalf("peak RSS %d bytes outside (0, %d]", rss, maxRSS)
	}
}

// checkpointedRun collects and runs cfg for the given days, streaming
// the epochs, and returns the last epoch's digest.
func checkpointedRun(b *testing.B, cfg Config, days int) string {
	b.Helper()
	p := New(cfg)
	p.Collect()
	var last *Epoch
	p.RunDaysFunc(p.World.Horizon(), days, func(e *Epoch) { last = e })
	if err := p.SnapshotErr(); err != nil {
		b.Fatal(err)
	}
	return last.Digest()
}
