package probe

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// fakeResponder answers deterministically from a map and counts probes.
type fakeResponder struct {
	up     map[ip6.Addr]wire.RespMask
	probes atomic.Int64
	// failFirst makes the first attempt to any address fail (for retry
	// tests): responds only when at >= threshold.
	failBefore wire.Time
}

func (f *fakeResponder) Probe(dst ip6.Addr, p wire.Proto, day int, at wire.Time) wire.Response {
	f.probes.Add(1)
	if at < f.failBefore {
		return wire.Response{}
	}
	if m, ok := f.up[dst]; ok && m.Has(p) {
		r := wire.Response{OK: true, HopLimit: 58}
		if p.IsTCP() {
			r.TCP = &wire.TCPInfo{OptionsText: "MSS-SACK-TS-N-WS", MSS: 1440, TSPresent: true, TSVal: uint32(at)}
		}
		return r
	}
	return wire.Response{}
}

func addrs(n int) []ip6.Addr {
	out := make([]ip6.Addr, n)
	base := ip6.MustParseAddr("2001:db8::")
	for i := range out {
		out[i] = ip6.AddrFromUint64(base.Hi(), uint64(i)+1)
	}
	return out
}

func TestScanBasic(t *testing.T) {
	targets := addrs(100)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	for i, a := range targets {
		if i%2 == 0 {
			var m wire.RespMask
			m.Set(wire.ICMPv6)
			f.up[a] = m
		}
	}
	s := New(f, WithWorkers(4))
	res := s.ScanSeq(ip6.Addrs(targets), wire.ICMPv6, 0)
	if len(res) != 100 {
		t.Fatalf("got %d results", len(res))
	}
	for i, r := range res {
		if r.Addr != targets[i] {
			t.Fatalf("result %d misaligned", i)
		}
		if want := i%2 == 0; r.OK != want {
			t.Errorf("target %d OK=%v want %v", i, r.OK, want)
		}
	}
}

// TestScanDeterministicAcrossWorkers pins the engine's core contract:
// ScanSeq, SweepSeq and ProbePairsSeq return identical results for any worker
// count, because virtual send times follow permutation position, not
// goroutine scheduling.
func TestScanDeterministicAcrossWorkers(t *testing.T) {
	targets := addrs(500)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	for i, a := range targets {
		var m wire.RespMask
		if i%3 == 0 {
			m.Set(wire.TCP80)
		}
		if i%4 == 0 {
			m.Set(wire.ICMPv6)
			m.Set(wire.UDP53)
		}
		if m.Any() {
			f.up[a] = m
		}
	}
	ref := New(f, WithWorkers(1))
	refScan := ref.ScanSeq(ip6.Addrs(targets), wire.TCP80, 2)
	refSweep := ref.SweepSeq(ip6.Addrs(targets), 2)
	refPairs := ref.ProbePairsSeq(ip6.Addrs(targets), wire.TCP80, 2)
	for _, workers := range []int{1, 4, 16} {
		s := New(f, WithWorkers(workers))
		res := s.ScanSeq(ip6.Addrs(targets), wire.TCP80, 2)
		for i := range refScan {
			if refScan[i].OK != res[i].OK || refScan[i].SentAt != res[i].SentAt {
				t.Fatalf("workers=%d: result %d differs from serial scan", workers, i)
			}
			if refScan[i].TCP != nil && res[i].TCP != nil && refScan[i].TCP.TSVal != res[i].TCP.TSVal {
				t.Fatalf("workers=%d: fingerprint %d differs", workers, i)
			}
		}
		sweep := s.SweepSeq(ip6.Addrs(targets), 2)
		for i := range refSweep {
			if sweep[i] != refSweep[i] {
				t.Fatalf("workers=%d: sweep mask %d = %v, want %v", workers, i, sweep[i], refSweep[i])
			}
		}
		pairs := s.ProbePairsSeq(ip6.Addrs(targets), wire.TCP80, 2)
		for i := range refPairs {
			if pairs[i].First.SentAt != refPairs[i].First.SentAt ||
				pairs[i].Second.SentAt != refPairs[i].Second.SentAt ||
				pairs[i].First.OK != refPairs[i].First.OK {
				t.Fatalf("workers=%d: pair %d differs", workers, i)
			}
		}
	}
}

func TestScanRateSpacing(t *testing.T) {
	targets := addrs(10)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	s := New(f, WithRate(1000), WithWorkers(1)) // 1000 μs interval
	res := s.ScanSeq(ip6.Addrs(targets), wire.ICMPv6, 0)
	seen := map[wire.Time]bool{}
	for _, r := range res {
		if r.SentAt%1000 != 0 {
			t.Errorf("send time %d not on 1000μs grid", r.SentAt)
		}
		if seen[r.SentAt] {
			t.Errorf("duplicate send slot %d", r.SentAt)
		}
		seen[r.SentAt] = true
	}
}

func TestRetries(t *testing.T) {
	targets := addrs(20)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}, failBefore: 100_000}
	for _, a := range targets {
		var m wire.RespMask
		m.Set(wire.ICMPv6)
		f.up[a] = m
	}
	// Without retries, early probes fail (sent before failBefore).
	s0 := New(f, WithRate(1000), WithWorkers(1), WithRetries(0))
	ok0 := 0
	for _, r := range s0.ScanSeq(ip6.Addrs(targets), wire.ICMPv6, 0) {
		if r.OK {
			ok0++
		}
	}
	// With retries, the second pass lands after the threshold.
	s3 := New(f, WithRate(1000), WithWorkers(1), WithRetries(9))
	ok3 := 0
	for _, r := range s3.ScanSeq(ip6.Addrs(targets), wire.ICMPv6, 0) {
		if r.OK {
			ok3++
		}
	}
	if ok3 <= ok0 {
		t.Errorf("retries did not help: %d vs %d", ok3, ok0)
	}
	if ok3 != len(targets) {
		t.Errorf("with retries %d/%d responded", ok3, len(targets))
	}
}

func TestSweep(t *testing.T) {
	targets := addrs(50)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	var m wire.RespMask
	m.Set(wire.ICMPv6)
	m.Set(wire.UDP53)
	f.up[targets[7]] = m
	s := New(f, WithWorkers(3))
	masks := s.SweepSeq(ip6.Addrs(targets), 0)
	if !masks[7].Has(wire.ICMPv6) || !masks[7].Has(wire.UDP53) || masks[7].Has(wire.TCP80) {
		t.Errorf("mask[7] = %v", masks[7])
	}
	if masks[8].Any() {
		t.Errorf("mask[8] = %v, want empty", masks[8])
	}
}

func TestProbePairs(t *testing.T) {
	targets := addrs(30)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	for _, a := range targets {
		var m wire.RespMask
		m.Set(wire.TCP80)
		f.up[a] = m
	}
	s := New(f, WithWorkers(4))
	pairs := s.ProbePairsSeq(ip6.Addrs(targets), wire.TCP80, 0)
	for i, pr := range pairs {
		if !pr.First.OK || !pr.Second.OK {
			t.Fatalf("pair %d not answered", i)
		}
		if pr.Second.SentAt <= pr.First.SentAt {
			t.Errorf("pair %d out of order", i)
		}
		if pr.First.TCP == nil || pr.Second.TCP == nil {
			t.Fatalf("pair %d missing fingerprints", i)
		}
	}
}

// TestPermutationIsBijective: every index appears exactly once.
func TestPermutationIsBijective(t *testing.T) {
	f := func(n uint16, seed uint64) bool {
		size := int(n)%2000 + 1
		p := NewPermutation(size, seed)
		if p.Len() != size {
			return false
		}
		seen := make([]bool, size)
		for i := 0; i < size; i++ {
			v := p.At(i)
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPermutationScatters: consecutive probe positions should not be
// consecutive target indices (that is the whole point).
func TestPermutationScatters(t *testing.T) {
	p := NewPermutation(10000, 7)
	adjacent := 0
	for i := 1; i < 10000; i++ {
		d := p.At(i) - p.At(i-1)
		if d == 1 || d == -1 {
			adjacent++
		}
	}
	if adjacent > 100 {
		t.Errorf("%d adjacent pairs out of 9999 — not scattering", adjacent)
	}
}

func TestPermutationEmptyAndOne(t *testing.T) {
	p0 := NewPermutation(0, 3)
	if p0.Len() != 0 {
		t.Error("empty permutation length")
	}
	p1 := NewPermutation(1, 3)
	if p1.At(0) != 0 {
		t.Error("singleton permutation")
	}
}

func TestProbeCount(t *testing.T) {
	targets := addrs(100)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	s := New(f, WithRetries(0), WithWorkers(2))
	s.ScanSeq(ip6.Addrs(targets), wire.ICMPv6, 0)
	if got := f.probes.Load(); got != 100 {
		t.Errorf("sent %d probes, want 100", got)
	}
	f.probes.Store(0)
	s.SweepSeq(ip6.Addrs(targets), 0)
	if got := f.probes.Load(); got != 500 {
		t.Errorf("sweep sent %d probes, want 500", got)
	}
}

func BenchmarkScan(b *testing.B) {
	targets := addrs(10000)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	s := New(f, WithWorkers(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScanSeq(ip6.Addrs(targets), wire.ICMPv6, 0)
	}
}
