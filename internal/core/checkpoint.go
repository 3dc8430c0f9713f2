package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"expanse/internal/apd"
	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/snap"
)

// This file is the persistence plane of the day pipeline: per-epoch
// checkpoints in the internal/snap format, and Resume, which restarts a
// multi-day run from any checkpointed epoch with byte-identical output.
//
// A snapshot directory holds three kinds of files:
//
//	hitlist.snap    the post-collection hitlist as one sorted address
//	                column — written once per run (the hitlist is
//	                static during the day loop).
//	table.snap      the frozen candidate universe in entry order —
//	                written once, after the first probed day derives it.
//	epoch_NNNN.snap one per APD day index: the day's history column
//	                (canonical Export form), the raw per-entry probe
//	                masks, and the cumulative probe budget.
//
// That is deliberately the *minimal* mutable state. Everything else a
// resumed pipeline needs is recomputed rather than stored, because it
// is a pure function of what is stored: the narrowed candidate subset
// and the running near-aliased masks replay from the column history
// (narrowing at day d reads the OR of columns 0..d-1), and the sealed
// epoch's merge/verdicts/filter/split/sweep replay through the normal
// Seal path. Storing only pure-function inputs is also what makes the
// byte-identity guarantee cheap to state: a resumed run feeds Seal and
// ProbeDay the same inputs the uninterrupted run fed them.
//
// Every file carries a config pin (simulation seed/scale/epochs, the
// routing registry's parameters, plus the APD parameters). Resume
// refuses a directory whose pin differs from its Config — EXCEPT
// Workers and Overlap, which are throughput knobs with byte-identical
// results and may differ freely between the saving and the resuming
// run.

// EpochPath returns the snapshot file path of APD day index i.
func EpochPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("epoch_%04d.snap", i))
}

func hitlistPath(dir string) string { return filepath.Join(dir, "hitlist.snap") }
func tablePath(dir string) string   { return filepath.Join(dir, "table.snap") }

// SnapshotErr reports the first checkpoint-write error of the day loop.
// Saving is best-effort from the pipeline's point of view: a failed
// write latches the error and disables further saves, but never fails
// the run itself.
func (p *Pipeline) SnapshotErr() error { return p.snapErr }

// SnapStats tallies the day loop's checkpoint writes: file and byte
// counts, and the wall-clock seconds the probe chain spent encoding and
// writing them (the persistence overhead a run pays for resumability).
type SnapStats struct {
	Files   int
	Bytes   int64
	Seconds float64
}

// SnapshotStats returns the accumulated checkpoint-write statistics.
// Valid after RunDaysFunc returns; not synchronized with a running day
// loop.
func (p *Pipeline) SnapshotStats() SnapStats { return p.snapStats }

// pin writes the config fingerprint shared by every snapshot file.
func (p *Pipeline) pin(w *snap.Writer) {
	w.U64(uint64(p.Cfg.Sim.Seed))
	w.F64(p.Cfg.Sim.Scale)
	w.Int(p.Cfg.Sim.Epochs)
	w.Int(p.Cfg.Sim.EpochDays)
	w.Int(p.Cfg.Sim.Registry.ASes)
	w.F64(p.Cfg.Sim.Registry.PrefixesPerAS)
	w.U64(uint64(p.Cfg.Sim.Registry.Seed))
	w.Int(p.Cfg.APDWindow)
	w.Int(p.Cfg.MinTargets)
}

// checkPin validates a file's config fingerprint against cfg.
func checkPin(r *snap.Reader, cfg Config) error {
	seed := r.U64()
	scale := r.F64()
	epochs := r.Int()
	epochDays := r.Int()
	var reg bgp.RegistryConfig
	reg.ASes = r.Int()
	reg.PrefixesPerAS = r.F64()
	reg.Seed = int64(r.U64())
	window := r.Int()
	minTargets := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if seed != uint64(cfg.Sim.Seed) || scale != cfg.Sim.Scale ||
		epochs != cfg.Sim.Epochs || epochDays != cfg.Sim.EpochDays ||
		reg != cfg.Sim.Registry ||
		window != cfg.APDWindow || minTargets != cfg.MinTargets {
		return fmt.Errorf("core: snapshot config pin (seed=%#x scale=%g epochs=%d epochDays=%d registry=%+v window=%d minTargets=%d) does not match the resuming config",
			seed, scale, epochs, epochDays, reg, window, minTargets)
	}
	return nil
}

// countWriter counts bytes on their way to the underlying writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// writeSnapFile writes a snapshot atomically — temp file in the same
// directory, synced, then renamed, so a crash mid-write never leaves a
// plausible-looking truncated snapshot behind and a file under its final
// name is on disk, not only in the page cache — and returns the bytes
// written.
func writeSnapFile(path string, fill func(w *snap.Writer)) (int64, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	cw := &countWriter{w: f}
	w := snap.NewWriter(cw)
	fill(w)
	err = w.Close()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return cw.n, nil
}

// nextSection advances r to the section with the wanted tag, skipping
// unknown sections (the format's forward-compatibility rule).
func nextSection(r *snap.Reader, want string) error {
	for {
		tag, err := r.Next()
		if err != nil {
			return fmt.Errorf("core: reading snapshot section %q: %w", want, err)
		}
		if tag == want {
			return nil
		}
	}
}

func masksToU16(ms []apd.BranchMask) []uint16 {
	out := make([]uint16, len(ms))
	for i, m := range ms {
		out[i] = uint16(m)
	}
	return out
}

func u16ToMasks(vs []uint16) []apd.BranchMask {
	out := make([]apd.BranchMask, len(vs))
	for i, v := range vs {
		out[i] = apd.BranchMask(v)
	}
	return out
}

// saveCheckpoint persists one probed day. It runs on the serial probe
// chain — immediately after ProbeDay, before the seal goroutine is
// spawned — so the detector's cumulative probe counter is sampled at
// exactly the point the checkpoint represents. On the first saved day
// it also writes the run-static files (hitlist, candidate table) if
// they are not already present.
func (p *Pipeline) saveCheckpoint(d *EpochDraft) {
	if p.snapErr != nil {
		return
	}
	t0 := time.Now() //lint:allow detrand snapshot-save timing is observability for bench JSON; it never reaches pipeline state or output
	p.snapErr = p.trySave(d)
	p.snapStats.Seconds += time.Since(t0).Seconds()
}

func (p *Pipeline) trySave(d *EpochDraft) error {
	dir := p.Cfg.SnapshotDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(hitlistPath(dir)); os.IsNotExist(err) {
		n, err := writeSnapFile(hitlistPath(dir), func(w *snap.Writer) {
			w.Section("PIN ")
			p.pin(w)
			w.Section("HITL")
			w.AddrCols(p.Store.All().Sorted())
		})
		if err != nil {
			return err
		}
		p.snapStats.Files++
		p.snapStats.Bytes += n
	}
	if _, err := os.Stat(tablePath(dir)); os.IsNotExist(err) {
		entries := p.builder.table.Candidates()
		prefixes := make([]ip6.Prefix, len(entries))
		targets := make([]int32, len(entries))
		for i, c := range entries {
			prefixes[i] = c.Prefix
			targets[i] = int32(c.Targets)
		}
		n, err := writeSnapFile(tablePath(dir), func(w *snap.Writer) {
			w.Section("PIN ")
			p.pin(w)
			w.Section("CAND")
			w.PrefixCols(prefixes)
			w.I32s(targets)
		})
		if err != nil {
			return err
		}
		p.snapStats.Files++
		p.snapStats.Bytes += n
	}
	probesSent := p.detector.ProbesSent
	width, ids, masks := d.column.Export()
	n, err := writeSnapFile(EpochPath(dir, d.index), func(w *snap.Writer) {
		w.Section("PIN ")
		p.pin(w)
		w.Section("META")
		w.Int(d.index)
		w.Int(d.day)
		w.Int(probesSent)
		w.Section("HCOL")
		w.Int(width)
		w.I32s(ids)
		w.U16s(masksToU16(masks))
		w.Section("PROB")
		w.U16s(masksToU16(d.flat))
	})
	if err != nil {
		return err
	}
	p.snapStats.Files++
	p.snapStats.Bytes += n
	return nil
}

// openSnap opens a snapshot file and validates its config pin.
func openSnap(path string, cfg Config) (*snap.Reader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := snap.NewReader(f)
	if err == nil {
		err = nextSection(r, "PIN ")
	}
	if err == nil {
		err = checkPin(r, cfg)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, f, nil
}

// Resume rebuilds a pipeline from a snapshot directory as of APD day
// index `epoch`: the post-collection hitlist, the candidate universe,
// and the full column history through that day are loaded; the
// narrowing and running-mask state replay from the columns; and the
// epoch itself is re-sealed and published. The returned pipeline
// continues with RunDaysFunc(ep.Day+1, …) exactly as the uninterrupted
// run would have — published epochs are byte-identical (Epoch.Digest)
// for any Workers and Overlap, which deliberately need not match the
// saving run's.
//
// Source-attribution state (per-source sets, new-address counts, runup
// points) is not checkpointed: resume restores the day pipeline, not
// the collection-phase reports.
func Resume(cfg Config, dir string, epoch int) (*Pipeline, *Epoch, error) {
	if epoch < 0 {
		return nil, nil, fmt.Errorf("core: Resume epoch %d out of range", epoch)
	}
	p := New(cfg)
	cfg = p.Cfg // defaults applied

	// Hitlist: one sorted column dump back into the sharded store.
	r, f, err := openSnap(hitlistPath(dir), cfg)
	if err != nil {
		return nil, nil, err
	}
	err = nextSection(r, "HITL")
	addrs := r.AddrCols()
	if err == nil {
		err = r.Err()
	}
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", hitlistPath(dir), err)
	}
	p.Store.All().AddSlice(addrs)
	p.Store.Compact()

	// Candidate universe: entries in original order rebuild the same
	// table (IDs are assigned by first occurrence).
	r, f, err = openSnap(tablePath(dir), cfg)
	if err != nil {
		return nil, nil, err
	}
	err = nextSection(r, "CAND")
	prefixes := r.PrefixCols()
	targets := r.I32s()
	if err == nil {
		err = r.Err()
	}
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", tablePath(dir), err)
	}
	if len(prefixes) != len(targets) {
		return nil, nil, fmt.Errorf("%s: %d prefixes vs %d target counts", tablePath(dir), len(prefixes), len(targets))
	}
	entries := make([]apd.Candidate, len(prefixes))
	for i := range entries {
		entries[i] = apd.Candidate{Prefix: prefixes[i], Targets: int(targets[i])}
	}
	table := apd.NewCandidateTable(entries)

	// Column history through the resume day, plus the resume day's raw
	// probe masks and cumulative probe budget.
	cols := make([]apd.DayColumn, epoch+1)
	var day, probesSent int
	var flat []apd.BranchMask
	for i := 0; i <= epoch; i++ {
		path := EpochPath(dir, i)
		r, f, err := openSnap(path, cfg)
		if err != nil {
			return nil, nil, err
		}
		err = nextSection(r, "META")
		index := r.Int()
		d := r.Int()
		sent := r.Int()
		if err == nil {
			err = nextSection(r, "HCOL")
		}
		width := r.Int()
		ids := r.I32s()
		masks := r.U16s()
		if err == nil && i == epoch {
			err = nextSection(r, "PROB")
			flat = u16ToMasks(r.U16s())
		}
		if err == nil {
			err = r.Err()
		}
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if index != i {
			return nil, nil, fmt.Errorf("%s: holds epoch %d", path, index)
		}
		if width != table.NumIDs() {
			return nil, nil, fmt.Errorf("%s: column width %d vs table ID space %d", path, width, table.NumIDs())
		}
		col, err := apd.ImportDayColumn(width, ids, u16ToMasks(masks))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		cols[i] = col
		if i == epoch {
			day, probesSent = d, sent
		}
	}

	b := p.builder
	b.adopt(table)
	b.hist.Restore(table, cols)

	// Replay the narrowing and the running near-aliased masks from the
	// column history: day 0 probes every entry; day d keeps entries
	// whose OR over columns 0..d-1 is near aliased, exactly as
	// ProbeDay's serial chain decided them the first time.
	for d := 0; d <= epoch; d++ {
		if d > 0 {
			b.narrow()
		}
		b.hist.ORDayInto(d, b.nearMask, cfg.Workers)
	}
	if len(flat) != len(b.cands) {
		return nil, nil, fmt.Errorf("core: epoch %d probe column has %d masks for %d candidates — snapshot and replay disagree", epoch, len(flat), len(b.cands))
	}
	p.detector.ProbesSent = probesSent

	// Re-seal and publish the resume epoch through the normal path; the
	// draft fields are byte-equal to the original run's, so the epoch is
	// too (including the optional sweep, which is deterministic).
	ep := b.Seal(b.draft(epoch, day, flat))
	p.publish(ep)
	return p, ep, nil
}

// Digest returns a hex SHA-256 over the epoch's canonical binary form —
// every published field in a fixed little-endian section layout (the
// snap format over a hash instead of a file). Two epochs with equal
// digests agree on the pinned hitlist, filter intervals, verdicts,
// probed candidates and masks, history column and window, merged masks,
// and the optional sweep. The byte-identity acceptance tests pin resumed
// and overlapped runs with exactly this digest.
func (e *Epoch) Digest() string {
	h := sha256.New()
	w := snap.NewWriter(h)
	w.Section("META")
	w.Int(e.Index)
	w.Int(e.Day)
	w.Section("HITL")
	w.AddrCols(e.Hitlist.Sorted())
	w.Section("FILT")
	ivs := e.Filter.Intervals()
	w.Int(len(ivs))
	for _, iv := range ivs {
		w.U64(iv.Lo.Hi())
		w.U64(iv.Lo.Lo())
		w.U64(iv.Hi.Hi())
		w.U64(iv.Hi.Lo())
		w.Bool(iv.Val)
	}
	w.Section("VERD")
	ps := make([]ip6.Prefix, 0, len(e.Verdicts))
	for pfx := range e.Verdicts {
		ps = append(ps, pfx)
	}
	sort.Slice(ps, func(i, j int) bool {
		if c := ps[i].Addr().Compare(ps[j].Addr()); c != 0 {
			return c < 0
		}
		return ps[i].Bits() < ps[j].Bits()
	})
	verdictBits := make([]bool, len(ps))
	prefixes := make([]ip6.Prefix, len(e.Candidates))
	candTargets := make([]int32, len(e.Candidates))
	for i, c := range e.Candidates {
		prefixes[i] = c.Prefix
		candTargets[i] = int32(c.Targets)
	}
	for i, pfx := range ps {
		verdictBits[i] = e.Verdicts[pfx]
	}
	w.PrefixCols(ps)
	w.Bits(verdictBits)
	w.Section("CAND")
	w.PrefixCols(prefixes)
	w.I32s(candTargets)
	w.Section("PROB")
	w.U16s(masksToU16(e.Probed))
	w.Section("HCOL")
	writeColumn(w, e.Column)
	w.Section("WIND")
	w.Int(len(e.Window))
	for _, c := range e.Window {
		writeColumn(w, c)
	}
	w.Section("MERG")
	w.U16s(masksToU16(e.Merged))
	if e.Scan != nil {
		w.Section("SCAN")
		w.Int(e.Scan.Day)
		w.AddrCols(e.Scan.Addrs)
		raw := make([]byte, len(e.Scan.Masks))
		for i, m := range e.Scan.Masks {
			raw[i] = uint8(m)
		}
		w.Bytes(raw)
	}
	if err := w.Close(); err != nil {
		// The only writer is a hash; an error here is a programming bug.
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeColumn(w *snap.Writer, c apd.DayColumn) {
	width, ids, masks := c.Export()
	w.Int(width)
	w.I32s(ids)
	w.U16s(masksToU16(masks))
}
