package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// epochDigest flattens everything observable about a published epoch into
// a string, so byte-comparing digests pins the orchestrator's output — not
// just "same verdict counts" but the same hitlist pin, the same split, the
// same sweep masks — against the serial loop.
func epochDigest(e *Epoch) string {
	var b strings.Builder
	fmt.Fprintf(&b, "index=%d day=%d hitlist=%d cands=%d", e.Index, e.Day, e.Hitlist.Len(), len(e.Candidates))
	aliased := 0
	for _, v := range e.Verdicts {
		if v {
			aliased++
		}
	}
	fmt.Fprintf(&b, " verdicts=%d aliased=%d prefixes=%d", len(e.Verdicts), aliased, len(e.Filter.AliasedPrefixes()))
	var probedBits, mergedBits int
	for _, m := range e.Probed {
		probedBits += m.Count()
	}
	for _, m := range e.Merged {
		mergedBits += m.Count()
	}
	fmt.Fprintf(&b, " probed=%d/%d merged=%d/%d window=%d", len(e.Probed), probedBits, len(e.Merged), mergedBits, len(e.Window))
	clean, al, bits := e.Split()
	fmt.Fprintf(&b, " clean=%d aliasedAddrs=%d bits=%d", len(clean), len(al), len(bits))
	if len(clean) > 0 {
		fmt.Fprintf(&b, " first=%v last=%v", clean[0], clean[len(clean)-1])
	}
	if e.Scan != nil {
		var maskBits int
		for _, m := range e.Scan.Masks {
			maskBits += m.Count()
		}
		fmt.Fprintf(&b, " scan=%d/%d", len(e.Scan.Masks), maskBits)
	}
	return b.String()
}

// runDays runs n APD days from start and returns the published epochs
// in day order.
func runDays(p *Pipeline, start, n int) []*Epoch {
	var eps []*Epoch
	p.RunDaysFunc(start, n, func(e *Epoch) { eps = append(eps, e) })
	return eps
}

func runEpochs(t *testing.T, workers, overlap, days int) []string {
	t.Helper()
	cfg := TestConfig()
	cfg.Sim.Scale = 0.03
	cfg.Sim.Registry.ASes = 120
	cfg.Workers = workers
	cfg.Overlap = overlap
	cfg.EpochSweep = true
	p := New(cfg)
	p.Collect()
	eps := runDays(p, p.World.Horizon(), days)
	out := make([]string, len(eps))
	for i, e := range eps {
		out[i] = epochDigest(e)
	}
	return out
}

// TestEpochPipelineGoldens pins the orchestrator's determinism contract:
// the published epochs — hitlist pin, verdicts, filter, split, sweep
// masks — are byte-identical to the fully serial day loop at every
// worker count and overlap depth.
func TestEpochPipelineGoldens(t *testing.T) {
	const days = 6
	ref := runEpochs(t, 1, 1, days) // serial loop, one worker
	for _, tc := range []struct{ workers, overlap int }{
		{1, 3}, {4, 2}, {8, 1}, {16, 3},
	} {
		got := runEpochs(t, tc.workers, tc.overlap, days)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d overlap=%d: %d epochs, want %d", tc.workers, tc.overlap, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d overlap=%d: epoch %d differs:\nserial: %s\ngot:    %s",
					tc.workers, tc.overlap, i, ref[i], got[i])
			}
		}
	}
}

// TestRunDaysFuncStreams pins the streaming contract: the callback
// observes every epoch exactly once, in day order, after the publish
// point has swapped (Latest is the callback's epoch), and the stream
// is byte-identical to a reference run of the same configuration.
func TestRunDaysFuncStreams(t *testing.T) {
	const days = 5
	build := func() *Pipeline {
		cfg := TestConfig()
		cfg.Sim.Scale = 0.03
		cfg.Sim.Registry.ASes = 120
		cfg.Overlap = 2
		p := New(cfg)
		p.Collect()
		return p
	}
	ref := build()
	want := runDays(ref, ref.World.Horizon(), days)

	p := build()
	var got []string
	p.RunDaysFunc(p.World.Horizon(), days, func(e *Epoch) {
		if latest := p.Latest(); latest != e {
			t.Errorf("epoch %d: Latest() is not the callback's epoch at publish", e.Index)
		}
		if e.Index != len(got) {
			t.Errorf("callback order: got epoch %d at position %d", e.Index, len(got))
		}
		got = append(got, epochDigest(e))
	})
	if len(got) != len(want) {
		t.Fatalf("streamed %d epochs, want %d", len(got), len(want))
	}
	for i, w := range want {
		if d := epochDigest(w); got[i] != d {
			t.Errorf("epoch %d: streamed digest differs:\nreference: %s\nstream:    %s", i, d, got[i])
		}
	}
}

// TestEpochConcurrentReaders is the -race stress test of the publish
// point: reader goroutines hammer Pipeline.Latest — filter lookups,
// memoized clean/aliased splits, sweep-column reads — while the
// orchestrator publishes days underneath them. Every epoch a reader
// observes must be fully built and internally consistent, and the
// observed sequence must be monotone in day order.
func TestEpochConcurrentReaders(t *testing.T) {
	cfg := TestConfig()
	cfg.Sim.Scale = 0.03
	cfg.Sim.Registry.ASes = 120
	cfg.Workers = 4
	cfg.Overlap = 3
	cfg.EpochSweep = true
	p := New(cfg)
	p.Collect()

	const days = 6
	done := make(chan struct{})
	var lastIndex atomic.Int64
	lastIndex.Store(-1)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				e := p.Latest()
				if e == nil {
					continue
				}
				// Publish-order monotonicity across all readers.
				for {
					prev := lastIndex.Load()
					if int64(e.Index) <= prev || lastIndex.CompareAndSwap(prev, int64(e.Index)) {
						break
					}
				}
				// No half-built epoch: every field a consumer reads is set.
				if e.Filter == nil || e.Verdicts == nil || e.Hitlist.Len() == 0 {
					t.Error("observed half-built epoch")
					return
				}
				if len(e.Probed) != len(e.Candidates) || len(e.Window) == 0 {
					t.Errorf("epoch %d: %d masks for %d candidates, window %d",
						e.Index, len(e.Probed), len(e.Candidates), len(e.Window))
					return
				}
				clean, aliased, bits := e.Split()
				if len(clean)+len(aliased) != e.Hitlist.Len() || len(bits) != e.Hitlist.Len() {
					t.Errorf("epoch %d: split %d+%d over hitlist %d",
						e.Index, len(clean), len(aliased), e.Hitlist.Len())
					return
				}
				// The filter and the split must agree (spot-check both ends).
				if len(clean) > 0 && e.IsAliased(clean[0]) {
					t.Errorf("epoch %d: clean target classified aliased", e.Index)
					return
				}
				if len(aliased) > 0 && !e.IsAliased(aliased[0]) {
					t.Errorf("epoch %d: aliased target classified clean", e.Index)
					return
				}
				if e.Scan == nil || len(e.Scan.Masks) != len(e.Scan.Addrs) {
					t.Errorf("epoch %d: malformed epoch sweep", e.Index)
					return
				}
			}
		}()
	}

	eps := runDays(p, p.World.Horizon(), days)
	close(done)
	wg.Wait()

	if got := p.Latest(); got == nil || got.Index != days-1 {
		t.Fatalf("latest epoch = %v, want index %d", got, days-1)
	}
	for i, e := range eps {
		if e.Index != i {
			t.Errorf("epoch %d has index %d", i, e.Index)
		}
	}
}

// TestCleanTargetsBeforeEpochPanics pins the loud-failure contract: the
// pipeline refuses a curated-target query before any APD epoch exists,
// with a descriptive panic instead of a nil dereference.
func TestCleanTargetsBeforeEpochPanics(t *testing.T) {
	p := New(TestConfig())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CleanTargets before any epoch did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "before any APD epoch was published") {
			t.Fatalf("panic = %v, want descriptive message", r)
		}
	}()
	p.CleanTargets()
}

// TestAccessorsNilBeforeEpoch pins the documented nil returns of the
// epoch-backed accessors before the first publish.
func TestAccessorsNilBeforeEpoch(t *testing.T) {
	p := New(TestConfig())
	if p.Latest() != nil || p.Filter() != nil {
		t.Error("epoch accessors non-nil before first publish")
	}
}
