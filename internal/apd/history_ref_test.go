package apd

// Per-prefix and map-shaped views of the columnar History, kept as
// test references: the property tests drive the history from per-day
// mask maps and read it back prefix by prefix, then compare against the
// retired map store (legacy_ref_test.go) and against the column scans
// the pipeline uses (MergeColumns, UnstablePrefixes, ORDayInto).

import (
	"sort"

	"expanse/internal/ip6"
)

// addMap appends one day's observation from a per-prefix mask map to
// an unbound history. Unseen prefixes are registered in ComparePrefix
// order, so ID assignment is a pure function of the observation
// sequence; columns recorded before a prefix was registered read it as
// absent.
func addMap(h *History, day map[ip6.Prefix]BranchMask) {
	index := make(map[ip6.Prefix]int32, len(h.prefixes))
	for id, p := range h.prefixes {
		index[p] = int32(id)
	}
	ids := make([]int32, 0, len(day))
	masks := make([]BranchMask, 0, len(day))
	for _, p := range ip6.SortedKeys(day) {
		id, ok := index[p]
		if !ok {
			id = int32(len(h.prefixes))
			h.prefixes = append(h.prefixes, p)
		}
		ids = append(ids, id)
		masks = append(masks, day[p])
	}
	h.AddIDs(ids, masks)
}

// addDense appends a day in the dense layout whatever its probed count:
// the reference representation of the sparse/dense equivalence tests.
func addDense(h *History, ids []int32, masks []BranchMask) {
	h.days = append(h.days, denseColumn(ids, masks, len(h.prefixes)))
}

// idOf returns prefix p's ID.
func (h *History) idOf(p ip6.Prefix) (int32, bool) {
	for id, q := range h.prefixes {
		if q == p {
			return int32(id), true
		}
	}
	return 0, false
}

// MergedAt returns the branch mask of prefix p at day index di, OR-merged
// over a sliding window of `window` days TOTAL ending at di (window 1 =
// that day only; values below 1 are clamped to 1): a branch counts as
// responsive if its address answered any protocol on any day in the
// window (§5.2). The paper's 3-day window therefore merges exactly days
// di-2 .. di.
func (h *History) MergedAt(p ip6.Prefix, di, window int) BranchMask {
	if window < 1 {
		window = 1
	}
	id, ok := h.idOf(p)
	if !ok {
		return 0
	}
	var m BranchMask
	for i := windowStart(di, window); i <= di && i < len(h.days); i++ {
		m |= h.days[i].mask(id)
	}
	return m
}

// MergedColumn returns the whole ID space's window-merged masks at day
// index di, indexed by prefix ID.
func (h *History) MergedColumn(di, window, workers int) []BranchMask {
	return MergeColumns(h.WindowColumns(di, window), len(h.prefixes), workers)
}

// presentUnion returns the union of the presence bitmaps over the window
// ending at di.
func (h *History) presentUnion(di, window int) bitset {
	u := newBitset(len(h.prefixes))
	for i := windowStart(di, window); i <= di && i < len(h.days); i++ {
		if d := &h.days[i]; d.masks != nil {
			for w := range d.present {
				u[w] |= d.present[w]
			}
		} else {
			for _, id := range d.ids {
				u.set(int(id))
			}
		}
	}
	return u
}

// AliasedAt returns the set of prefixes classified aliased at day index
// di under the given sliding window. A prefix participates if it was
// probed on ANY day of the window, not just day di — later days narrow
// the probe set to near-aliased candidates, and the retired per-day
// iteration silently dropped prefixes responsive earlier in the window
// but absent from day di's narrowed probe set.
func (h *History) AliasedAt(di, window, workers int) map[ip6.Prefix]bool {
	out := make(map[ip6.Prefix]bool)
	if di >= len(h.days) || di < 0 {
		return out
	}
	if window < 1 {
		window = 1
	}
	present := h.presentUnion(di, window)
	for id, m := range h.MergedColumn(di, window, workers) {
		if m == AllBranches && present.get(id) {
			out[h.prefixes[id]] = true
		}
	}
	return out
}

// Prefixes returns every prefix ever observed, sorted.
func (h *History) Prefixes() []ip6.Prefix {
	seen := h.presentUnion(len(h.days)-1, len(h.days))
	out := make([]ip6.Prefix, 0, len(h.prefixes))
	for id, p := range h.prefixes {
		if seen.get(id) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return ip6.ComparePrefix(out[i], out[j]) < 0 })
	return out
}

// HitlistCandidatesAddrs derives candidates from a plain address slice:
// copied, sorted and fed through the run-boundary scan. Duplicate
// addresses count once per occurrence.
func HitlistCandidatesAddrs(addrs []ip6.Addr, minTargets int) []Candidate {
	sorted := make([]ip6.Addr, len(addrs))
	copy(sorted, addrs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	return CandidatesFromSorted(ip6.Addrs(sorted), minTargets)
}
