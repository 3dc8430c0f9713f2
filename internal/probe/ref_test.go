package probe

import (
	"sync"

	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// This file is the per-probe reference engine: one Responder.Probe call
// per probe, one Result per target. Production scans run on the batched
// columnar engine (columns.go); the property tests pin it against this
// reference probe-for-probe — same permutation, same virtual send times,
// same retry passes — at every worker count.

// Result is the outcome of probing one target on one protocol.
type Result struct {
	Addr     ip6.Addr
	Proto    wire.Proto
	OK       bool
	HopLimit uint8
	TCP      *wire.TCPInfo
	SentAt   wire.Time
}

// NewPermutation builds the permutation for n elements from a seed.
func NewPermutation(n int, seed uint64) *Permutation {
	return NewPermutationInto(nil, n, seed)
}

// shard splits the sequence positions [0,n) into s.workers contiguous
// chunks and runs fn(lo,hi) for each on its own goroutine. Virtual send
// times are a pure function of sequence position, so sharding never
// changes what goes on the (simulated) wire.
func (s *Scanner) shard(n int, fn func(lo, hi int)) {
	chunk := (n + s.workers - 1) / s.workers
	if chunk == 0 {
		chunk = 1
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ScanSeq probes every target once (plus retries) on the given protocol,
// walking the permuted sequence probe by probe. Results are returned in
// target order.
func (s *Scanner) ScanSeq(targets ip6.AddrSeq, proto wire.Proto, day int) []Result {
	n := targets.Len()
	results := make([]Result, n)
	perm := NewPermutation(n, s.seed^uint64(proto)<<32^uint64(day))
	iv := s.interval()
	s.shard(n, func(lo, hi int) {
		for seq := lo; seq < hi; seq++ {
			idx := perm.At(seq)
			addr := targets.At(idx)
			at := wire.Time(seq) * iv
			r := s.probeOnce(addr, proto, day, at)
			for a := 0; !r.OK && a < s.retries; a++ {
				at += wire.Time(n) * iv // retry pass later
				r = s.probeOnce(addr, proto, day, at)
			}
			results[idx] = r
		}
	})
	return results
}

func (s *Scanner) probeOnce(addr ip6.Addr, proto wire.Proto, day int, at wire.Time) Result {
	resp := s.responder.Probe(addr, proto, day, at)
	return Result{
		Addr: addr, Proto: proto,
		OK: resp.OK, HopLimit: resp.HopLimit, TCP: resp.TCP,
		SentAt: at,
	}
}

// Pair holds the two consecutive fingerprint probes of §5.4.
type Pair struct {
	First, Second Result
}

// ProbePairsSeq is the per-probe reference of ProbePairColumns.
func (s *Scanner) ProbePairsSeq(targets ip6.AddrSeq, proto wire.Proto, day int) []Pair {
	n := targets.Len()
	out := make([]Pair, n)
	iv := s.interval()
	perm := NewPermutation(n, s.seed^0xfb^uint64(day))
	s.shard(n, func(lo, hi int) {
		for seq := lo; seq < hi; seq++ {
			idx := perm.At(seq)
			addr := targets.At(idx)
			at := wire.Time(seq) * iv * 2
			out[idx] = Pair{
				First:  s.probeOnce(addr, proto, day, at),
				Second: s.probeOnce(addr, proto, day, at+iv),
			}
		}
	})
	return out
}
