package probe

import (
	"sync"

	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// This file is the batched, structure-of-arrays scan engine. ScanColumns
// walks each worker's shard in TARGET-INDEX order — so a sorted target
// view presents the responder with sorted runs it can resolve once per
// run — and hands the responder whole batches that write straight into
// wire.ResultColumns. A probe's virtual send time is fixed by its
// position in the per-protocol permutation, recovered through the
// inverse permutation, so the batched engine is probe-for-probe
// identical to a per-probe walk of the permutation at any worker count
// and chunk size (pinned against such a reference by test).

// batchLen is the inner batch size handed to the responder: large enough
// to amortize the call, small enough to keep gather scratch cache-warm.
const batchLen = 512

// shardAligned splits the index range [0,n) into s.workers contiguous
// chunks, aligned to 64 indices so concurrent workers never share a word
// of the OK bitset, and runs fn(lo,hi) for each on its own goroutine,
// returning once all chunks finish.
func (s *Scanner) shardAligned(n int, fn func(lo, hi int)) {
	chunk := (n + s.workers - 1) / s.workers
	chunk = (chunk + 63) &^ 63
	if chunk == 0 {
		chunk = 64
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// TCPTable returns the scanner's fingerprint interning table. All columnar
// scans through this scanner intern into it, so refs are comparable across
// scans and days.
func (s *Scanner) TCPTable() *wire.TCPTable { return s.tcp }

// ScanColumns probes every target once (plus retries) on the given
// protocol during the given day, writing results into out, which must
// have been Reset (or ResetOK, for mask-only consumers) for exactly
// targets.Len() targets. Column i describes target i. The probe ORDER
// over the wire follows a pseudo-random permutation, like ZMap's address
// randomization, so bursts never hammer one prefix. Safe for concurrent
// use, as long as the Responder honors the concurrency contract
// documented in netsim.
func (s *Scanner) ScanColumns(targets ip6.AddrSeq, proto wire.Proto, day int, out *wire.ResultColumns) {
	s.scanColumns(targets, proto, day, out, nil)
}

func (s *Scanner) scanColumns(targets ip6.AddrSeq, proto wire.Proto, day int, out *wire.ResultColumns, invBuf *[]uint32) {
	n := targets.Len()
	perm, permBuf := s.pooledPermutation(n, s.seed^uint64(proto)<<32^uint64(day))
	if invBuf == nil {
		// Callers without their own scratch (the APD detector probes
		// millions of fan-out targets per day) share pooled buffers.
		invBuf = s.pooledInv()
		defer s.invPool.Put(invBuf)
	}
	*invBuf = perm.Inverse(*invBuf)
	inv := *invBuf
	// The batched engine walks targets in index order through inv; the
	// forward cache's job ends here, so recycle it before the scan.
	s.recyclePermutation(perm, permBuf)
	iv := s.interval()
	s.shardAligned(n, func(lo, hi int) {
		s.scanChunk(targets, proto, day, lo, hi, inv, iv, out)
	})
}

// pooledInv returns a reusable inverse-permutation buffer.
func (s *Scanner) pooledInv() *[]uint32 {
	if buf, ok := s.invPool.Get().(*[]uint32); ok {
		return buf
	}
	return new([]uint32)
}

// pooledPermutation builds the (proto, day) permutation over a recycled
// cache buffer. Return the cache with recyclePermutation once the
// permutation is no longer needed.
func (s *Scanner) pooledPermutation(n int, seed uint64) (*Permutation, *[]uint32) {
	buf, ok := s.permPool.Get().(*[]uint32)
	if !ok {
		buf = new([]uint32)
	}
	perm := NewPermutationInto(*buf, n, seed)
	*buf = perm.Cache()
	return perm, buf
}

func (s *Scanner) recyclePermutation(p *Permutation, buf *[]uint32) {
	s.permPool.Put(buf)
}

// forEachBatch slices [lo,hi) into batchLen windows and materializes each
// as a []ip6.Addr for the responder — zero-copy for plain ip6.Addrs
// views, through a reused gather scratch otherwise — calling fn with the
// window and its index range.
func forEachBatch(targets ip6.AddrSeq, lo, hi int, fn func(dsts []ip6.Addr, b, e int)) {
	as, fast := targets.(ip6.Addrs)
	var gather []ip6.Addr
	for b := lo; b < hi; b += batchLen {
		e := b + batchLen
		if e > hi {
			e = hi
		}
		var dsts []ip6.Addr
		if fast {
			dsts = as[b:e]
		} else {
			if gather == nil {
				gather = make([]ip6.Addr, batchLen)
			}
			dsts = gather[:e-b]
			for i := b; i < e; i++ {
				dsts[i-b] = targets.At(i)
			}
		}
		fn(dsts, b, e)
	}
}

// scanChunk probes targets [lo,hi) in index order: gather a batch, fix
// each probe's send time from its permutation position, let the responder
// answer the whole batch, then retry the unanswered subset in place.
func (s *Scanner) scanChunk(targets ip6.AddrSeq, proto wire.Proto, day int, lo, hi int, inv []uint32, iv wire.Time, out *wire.ResultColumns) {
	ats := make([]wire.Time, 0, batchLen)
	var retry retryState
	forEachBatch(targets, lo, hi, func(dsts []ip6.Addr, b, e int) {
		ats = ats[:0]
		for i := b; i < e; i++ {
			at := wire.Time(inv[i]) * iv
			ats = append(ats, at)
			if out.SentAt != nil {
				out.SentAt[i] = at
			}
		}
		wire.ProbeBatchInto(s.responder, dsts, proto, day, ats, out, b)
		if s.retries > 0 {
			retry.run(s, targets, proto, day, b, e, inv, iv, out)
		}
	})
}

// retryState holds the scratch of the in-chunk retry passes: the failed
// subset is re-batched with each attempt's send time shifted one full
// scan length later.
type retryState struct {
	idx  []int
	dsts []ip6.Addr
	ats  []wire.Time
	cols wire.ResultColumns
}

func (r *retryState) run(s *Scanner, targets ip6.AddrSeq, proto wire.Proto, day int, b, e int, inv []uint32, iv wire.Time, out *wire.ResultColumns) {
	n := len(inv)
	r.idx = r.idx[:0]
	for i := b; i < e; i++ {
		if !out.OK.Get(i) {
			r.idx = append(r.idx, i)
		}
	}
	for a := 0; len(r.idx) > 0 && a < s.retries; a++ {
		r.dsts = r.dsts[:0]
		r.ats = r.ats[:0]
		for _, i := range r.idx {
			r.dsts = append(r.dsts, targets.At(i))
			at := wire.Time(inv[i])*iv + wire.Time(a+1)*wire.Time(n)*iv
			r.ats = append(r.ats, at)
			if out.SentAt != nil {
				out.SentAt[i] = at
			}
		}
		if out.Table != nil {
			r.cols.Reset(len(r.idx), out.Table)
		} else {
			r.cols.ResetOK(len(r.idx))
		}
		wire.ProbeBatchInto(s.responder, r.dsts, proto, day, r.ats, &r.cols, 0)
		kept := r.idx[:0]
		for k, i := range r.idx {
			if !r.cols.OK.Get(k) {
				kept = append(kept, i)
				continue
			}
			out.OK.Set(i)
			if out.HopLimit != nil {
				out.HopLimit[i] = r.cols.HopLimit[k]
			}
			if out.TCPRef != nil {
				out.TCPRef[i] = r.cols.TCPRef[k]
				out.TSVal[i] = r.cols.TSVal[k]
			}
		}
		r.idx = kept
	}
}

// sweepBufs is the reusable buffer set of a five-protocol sweep: one
// mask-only column set and one inverse-permutation scratch per protocol.
type sweepBufs struct {
	cols [wire.NumProtos]wire.ResultColumns
	inv  [wire.NumProtos][]uint32
}

// sweepInto runs one day's five-protocol sweep into masks (len ==
// targets.Len(), fully overwritten). The five scans run concurrently,
// each fanned out over the scanner's worker shards and writing only its
// OK bitset; the masks fold the five bitsets word-by-word after the
// barrier — no per-protocol []Result is ever materialized.
func (s *Scanner) sweepInto(targets ip6.AddrSeq, day int, bufs *sweepBufs, masks []wire.RespMask) {
	n := targets.Len()
	var wg sync.WaitGroup
	for pi, p := range wire.Protos {
		wg.Add(1)
		go func(pi int, p wire.Proto) {
			defer wg.Done()
			bufs.cols[pi].ResetOK(n)
			s.scanColumns(targets, p, day, &bufs.cols[pi], &bufs.inv[pi])
		}(pi, p)
	}
	wg.Wait()
	// Fold: protocol pi's OK bit is exactly mask bit pi (Protos is the
	// canonical order), so each 64-target block folds five words.
	s.shardAligned(n, func(lo, hi int) {
		for w := lo >> 6; w<<6 < hi; w++ {
			base := w << 6
			end := base + 64
			if end > hi {
				end = hi
			}
			var words [wire.NumProtos]uint64
			for pi := range words {
				words[pi] = bufs.cols[pi].OK[w]
			}
			for i := base; i < end; i++ {
				sh := uint(i - base)
				masks[i] = wire.RespMask(
					words[0]>>sh&1 |
						words[1]>>sh&1<<1 |
						words[2]>>sh&1<<2 |
						words[3]>>sh&1<<3 |
						words[4]>>sh&1<<4)
			}
		}
	})
}

// SweepDays streams a multi-day sweep over one target list: days
// consecutive daily sweeps starting at day0, reusing one set of column
// and mask buffers throughout. fn receives each day's masks, which are
// only valid during the call — consumers fold them into their own state
// (the longitudinal study of Fig 8 keeps one counter per day). A
// days-day sweep allocates like a single sweep instead of days of them.
func (s *Scanner) SweepDays(targets ip6.AddrSeq, day0, days int, fn func(day int, masks []wire.RespMask)) {
	var bufs sweepBufs
	masks := make([]wire.RespMask, targets.Len())
	for d := 0; d < days; d++ {
		s.sweepInto(targets, day0+d, &bufs, masks)
		fn(day0+d, masks)
	}
}

// PairColumns is the structure-of-arrays form of the §5.4 fingerprint
// pair probing: column i of First/Second describes the two back-to-back
// probes of target i, with SYN-ACK fingerprints interned in the
// scanner's table.
type PairColumns struct {
	First, Second wire.ResultColumns
}

// ProbePairColumns sends two back-to-back TCP probes with the options
// module to every target (the §5.4 fingerprint consistency analysis),
// writing both into pair columns. Pairs follow their own permutation;
// the second probe of a pair leaves one interval after the first.
func (s *Scanner) ProbePairColumns(targets ip6.AddrSeq, proto wire.Proto, day int, out *PairColumns) {
	n := targets.Len()
	out.First.Reset(n, s.tcp)
	out.Second.Reset(n, s.tcp)
	perm, permBuf := s.pooledPermutation(n, s.seed^0xfb^uint64(day))
	invBuf := s.pooledInv()
	defer s.invPool.Put(invBuf)
	*invBuf = perm.Inverse(*invBuf)
	inv := *invBuf
	s.recyclePermutation(perm, permBuf)
	iv := s.interval()
	s.shardAligned(n, func(lo, hi int) {
		ats1 := make([]wire.Time, 0, batchLen)
		ats2 := make([]wire.Time, 0, batchLen)
		forEachBatch(targets, lo, hi, func(dsts []ip6.Addr, b, e int) {
			ats1 = ats1[:0]
			ats2 = ats2[:0]
			for i := b; i < e; i++ {
				at := wire.Time(inv[i]) * iv * 2
				ats1 = append(ats1, at)
				ats2 = append(ats2, at+iv)
				out.First.SentAt[i] = at
				out.Second.SentAt[i] = at + iv
			}
			wire.ProbeBatchInto(s.responder, dsts, proto, day, ats1, &out.First, b)
			wire.ProbeBatchInto(s.responder, dsts, proto, day, ats2, &out.Second, b)
		})
	})
}
