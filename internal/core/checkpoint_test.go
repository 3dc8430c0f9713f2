package core

import (
	"os"
	"strings"
	"testing"

	"expanse/internal/snap"
)

func snapTestConfig(workers, overlap int) Config {
	cfg := TestConfig()
	cfg.Sim.Scale = 0.03
	cfg.Sim.Registry.ASes = 120
	cfg.Workers = workers
	cfg.Overlap = overlap
	cfg.EpochSweep = true
	return cfg
}

// baselineRun runs an uninterrupted checkpointing day loop and returns
// the pipeline's published digests.
func baselineRun(t *testing.T, dir string, days int) []string {
	t.Helper()
	cfg := snapTestConfig(8, 2)
	cfg.SnapshotDir = dir
	p := New(cfg)
	p.Collect()
	eps := runDays(p, p.World.Horizon(), days)
	if err := p.SnapshotErr(); err != nil {
		t.Fatalf("SnapshotErr: %v", err)
	}
	for i := range eps {
		if _, err := os.Stat(EpochPath(dir, i)); err != nil {
			t.Fatalf("missing checkpoint for epoch %d: %v", i, err)
		}
	}
	out := make([]string, len(eps))
	for i, e := range eps {
		out[i] = e.Digest()
	}
	return out
}

// TestResumeByteIdentical pins the persistence plane's core guarantee:
// restarting the day loop from a checkpointed epoch republishes that
// epoch and every later one byte-identically (SHA-256 over the full
// canonical epoch encoding), for every worker count and overlap depth —
// which deliberately need not match the saving run's.
func TestResumeByteIdentical(t *testing.T) {
	const days = 6
	dir := t.TempDir()
	base := baselineRun(t, dir, days)

	// Full workers × overlap matrix at a mid-run resume point.
	const resumeAt = 3
	for _, workers := range []int{1, 4, 16} {
		for _, overlap := range []int{1, 2, 3} {
			rp, ep, err := Resume(snapTestConfig(workers, overlap), dir, resumeAt)
			if err != nil {
				t.Fatalf("Resume(w=%d o=%d): %v", workers, overlap, err)
			}
			if got := ep.Digest(); got != base[resumeAt] {
				t.Fatalf("Resume(w=%d o=%d): epoch %d digest %s != baseline %s",
					workers, overlap, resumeAt, got, base[resumeAt])
			}
			rest := runDays(rp, ep.Day+1, days-1-resumeAt)
			for i, e := range rest {
				if got := e.Digest(); got != base[resumeAt+1+i] {
					t.Fatalf("Resume(w=%d o=%d): continued epoch %d digest diverged",
						workers, overlap, resumeAt+1+i)
				}
			}
		}
	}

	// Resume from the very first epoch, replaying the whole run.
	rp, ep, err := Resume(snapTestConfig(16, 3), dir, 0)
	if err != nil {
		t.Fatalf("Resume(0): %v", err)
	}
	if ep.Digest() != base[0] {
		t.Fatal("Resume(0): epoch 0 digest diverged")
	}
	rest := runDays(rp, ep.Day+1, days-1)
	for i, e := range rest {
		if e.Digest() != base[1+i] {
			t.Fatalf("Resume(0): continued epoch %d digest diverged", 1+i)
		}
	}
	if latest := rp.Latest(); latest == nil || latest.Index != days-1 {
		t.Fatal("resumed pipeline did not publish through Latest")
	}
}

// writeEpochColumn overwrites checkpoint i with a checksum-valid file
// whose history column is the given (width, ids, masks) triple.
func writeEpochColumn(t *testing.T, cfg Config, dir string, i, width int, ids []int32, masks []uint16) {
	t.Helper()
	p := &Pipeline{Cfg: cfg}
	_, err := writeSnapFile(EpochPath(dir, i), func(w *snap.Writer) {
		w.Section("PIN ")
		p.pin(w)
		w.Section("META")
		w.Int(i)
		w.Int(0)
		w.Int(0)
		w.Section("HCOL")
		w.Int(width)
		w.I32s(ids)
		w.U16s(masks)
		w.Section("PROB")
		w.U16s(nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResumeRejectsCorruption pins the failure modes: truncated files,
// mismatched config pins, absent checkpoints, and checksum-valid files
// holding a malformed history column must surface as errors (never
// panics, never silently-wrong pipelines).
func TestResumeRejectsCorruption(t *testing.T) {
	const days = 3
	dir := t.TempDir()
	baselineRun(t, dir, days)
	cfg := snapTestConfig(4, 2)

	if _, _, err := Resume(cfg, dir, days+5); err == nil {
		t.Fatal("Resume past the last checkpoint succeeded")
	}
	if _, _, err := Resume(cfg, dir, -1); err == nil {
		t.Fatal("Resume(-1) succeeded")
	}

	for _, m := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"scale", func(c *Config) { c.Sim.Scale *= 2 }},
		{"registry seed", func(c *Config) { c.Sim.Registry.Seed++ }},
	} {
		other := cfg
		m.mutate(&other)
		if _, _, err := Resume(other, dir, 1); err == nil ||
			!strings.Contains(err.Error(), "config pin") {
			t.Fatalf("%s mismatch: config-pin err = %v", m.name, err)
		}
	}

	// Truncate one epoch file: resume through it must error.
	path := EpochPath(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(cfg, dir, 2); err == nil {
		t.Fatal("Resume over a truncated checkpoint succeeded")
	}
	// Restore and flip one payload byte instead: checksum must catch it.
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 1
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(cfg, dir, 2); err == nil {
		t.Fatal("Resume over a corrupted checkpoint succeeded")
	}

	// Checksum-valid epoch files whose column is malformed: the column
	// import rejects them, and Resume names the file.
	rp, _, err := Resume(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	width := rp.builder.table.NumIDs()
	dense := make([]int32, width/2)
	for i := range dense {
		dense[i] = int32(i)
	}
	dense[len(dense)-1] = 99999
	for _, c := range []struct {
		name  string
		ids   []int32
		masks []uint16
	}{
		{"3 ids, 1 mask", []int32{0, 1, 2}, []uint16{1}},
		{"dense column, id past width", dense, make([]uint16, len(dense))},
		{"sparse column, negative id", []int32{-1}, []uint16{1}},
		{"sparse column, id past width", []int32{int32(width)}, []uint16{1}},
	} {
		writeEpochColumn(t, cfg, dir, 0, width, c.ids, c.masks)
		_, _, err := Resume(cfg, dir, 0)
		if err == nil {
			t.Fatalf("%s: Resume succeeded", c.name)
		}
		if !strings.Contains(err.Error(), EpochPath(dir, 0)) {
			t.Errorf("%s: error %q does not name the file", c.name, err)
		}
	}
}
