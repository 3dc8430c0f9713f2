package main

import (
	"runtime"
	"runtime/metrics"
)

// rtSample is a snapshot of the runtime counters the per-layer metrics
// take deltas of.
type rtSample struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64 // seconds, the runtime's estimate
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// readRuntime samples the runtime counters.
func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	u := func(i int) uint64 {
		if ss[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return ss[i].Value.Uint64()
	}
	var gcCPU float64
	if ss[3].Value.Kind() == metrics.KindFloat64 {
		gcCPU = ss[3].Value.Float64()
	}
	return rtSample{allocBytes: u(0), allocObjects: u(1), gcCycles: u(2), gcCPU: gcCPU}
}

// allocSince returns the heap bytes and objects allocated since b.
func (a rtSample) allocSince(b rtSample) (bytes, objects float64) {
	return float64(a.allocBytes - b.allocBytes), float64(a.allocObjects - b.allocObjects)
}

// quiesce collects garbage between stages so one stage's leftovers are
// not charged to the next.
func quiesce() { runtime.GC() }
