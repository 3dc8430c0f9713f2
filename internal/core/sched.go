package core

import "sync"

// This file is the day orchestrator: the serial collect → probe → merge
// → publish day loop refactored into a small dependency DAG with a
// defined publish point per day, so consecutive days overlap without
// giving up byte-identical determinism.
//
// Per day d the DAG has two nodes:
//
//	probe(d)   ProbeDay: narrowing, fan-out probing, history append,
//	           running-mask update. Probe nodes form a serial chain —
//	           the detector reuses scan columns across days and the
//	           narrowing for day d+1 reads the running masks after day
//	           d's fold — which is also what keeps the probe sequence
//	           identical to the serial loop's.
//	seal(d)    Seal + publish: window merge over the draft's pinned
//	           column snapshots, verdict map, filter compilation, the
//	           optional epoch sweep, then the atomic publish. Seal reads
//	           only immutable draft state, so it runs concurrently with
//	           probe(d+1), probe(d+2), … and with other seals.
//
// Edges: probe(d) → seal(d) (the draft); seal(d-1) → seal(d)'s publish
// step (epochs publish in day order, so readers of Pipeline.Latest see
// a monotone sequence); seal(d-depth) → probe(d) (the overlap-depth
// backpressure: at most `depth` days are in flight, depth 1 degenerates
// to the fully serial loop).
//
// Determinism: every value a seal consumes is a pure function of its
// draft, and drafts come off the serial probe chain in the same order
// with the same contents as the serial loop produces — so the published
// epochs, and every report derived from them, are byte-identical at any
// worker count and overlap depth (pinned by TestEpochPipelineGoldens
// and the -race stress test).

// RunDaysFunc runs n consecutive APD days starting at absolute day
// `start` through the publish-point pipeline — the one day loop of the
// daily service. On the first day the builder derives the candidate set
// (hitlist multi-level mapping plus all BGP-announced prefixes); later
// days re-probe only prefixes that were close to aliased before.
// Cfg.Overlap bounds how many days are in flight (1 = serial);
// Cfg.EpochSweep adds each day's curated-target sweep to its epoch.
//
// fn observes each epoch at its publish point — in day order, serially,
// after Pipeline.Latest has swapped — and the orchestrator keeps no
// reference of its own afterwards, so an epoch the callback drops
// becomes garbage as soon as the sliding window moves past its pinned
// columns. At large scale each epoch retains its own verdict map,
// compiled filter and candidate columns (~hundreds of MB per day at
// scale 16), so callers should keep only the epochs they need. fn runs
// on the sealing goroutine ahead of the publish of day d+1 and the
// probe of day d+depth: a slow callback backpressures the pipeline
// rather than racing it. fn may be nil when the caller only reads the
// final epoch through Latest.
func (p *Pipeline) RunDaysFunc(start, n int, fn func(*Epoch)) {
	if n <= 0 {
		return
	}
	depth := p.Cfg.Overlap
	if depth < 1 {
		depth = 1
	}
	published := make([]chan struct{}, n)
	for i := range published {
		published[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for d := 0; d < n; d++ {
		if d >= depth {
			<-published[d-depth]
		}
		draft := p.builder.ProbeDay(start + d)
		if p.Cfg.SnapshotDir != "" {
			// Checkpoint on the probe chain: the draft is complete and the
			// cumulative probe counter is exactly this day's (seals of
			// earlier days never touch it).
			p.saveCheckpoint(draft)
		}
		wg.Add(1)
		go func(d int, draft *EpochDraft) {
			defer wg.Done()
			ep := p.builder.Seal(draft)
			if d > 0 {
				<-published[d-1]
			}
			p.publish(ep)
			if fn != nil {
				fn(ep)
			}
			close(published[d])
		}(d, draft)
	}
	wg.Wait()
}
