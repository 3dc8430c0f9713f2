package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"expanse/internal/apd"
	"expanse/internal/cluster"
	"expanse/internal/core"
	"expanse/internal/entropy"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
	"expanse/internal/probe"
	"expanse/internal/prof"
	"expanse/internal/snap"
	"expanse/internal/wire"
)

// This file is one workload process. Each process starts fresh, so its
// peak RSS and CPU time are its own; the parent (main.go) runs one or
// two of them per workload and aggregates their results.
//
// A process runs the untraced pipeline (public entry points, exactly as
// a user drives them) or the traced one, which drives the same stages
// one call at a time — Overlap 1, Seal, Split and Sweep called
// separately, epoch sweep off — and records a span around each call.
// The traced process then runs extra measurements (candidate
// derivation, netsim micro-measurements, snapshot decode) under a
// separate root span, so the pipeline root stays comparable with the
// untraced wall time.

// Stages a workload process can run.
const (
	stageDaily   = "daily"
	stageStudy   = "study"
	stageSave    = "restart-save"
	stageResume  = "restart-resume"
	studyScale   = 2.0
	clusterKMax  = 20
	clusterSeed  = 0x16c18
	batchChunk   = 8192
	bytesPerMiB  = 1 << 20
	rootPipeline = "bench.pipeline"
	rootProbes   = "bench.probes"
)

// childOpts is what one workload process is told to do.
type childOpts struct {
	Stage     string
	Seed      int64 // world seed (netsim Config.Seed)
	Days      int   // APD days this process runs
	ResumeAt  int   // restart-resume: checkpoint index to resume from
	SnapDir   string
	Trace     bool
	Tiny      bool // test-sized world
	SetupOnly bool // build the stage's pipeline, time it and exit
}

// ops counts output checks: every published epoch, sweep, clustering,
// checkpoint write and resume is one attempted operation, failed when
// its check does not hold.
type ops struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

func (o *ops) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
	}
}

// childResult is what a workload process reports to the parent, as one
// JSON line on its standard output.
type childResult struct {
	Stage   string               `json:"stage"`
	Host    prof.HostMeta        `json:"host"`
	Workers int                  `json:"workers"`
	Overlap int                  `json:"overlap"`
	Scale   float64              `json:"scale"`
	Seed    int64                `json:"world_seed"`
	Days    int                  `json:"days"`
	Scalars map[string]float64   `json:"scalars"`
	Samples map[string][]float64 `json:"samples"`
	// Outputs are the deterministic results the checks compare: counts
	// and digests, as strings.
	Outputs map[string]string `json:"outputs"`
	Ops     ops               `json:"ops"`
	Spans   []Span            `json:"spans,omitempty"`
}

// workloadConfig is the pipeline configuration of a stage: Workers and
// GOMAXPROCS at the CPU count, Overlap at its default (1 when traced),
// the epoch sweep on for the daily service's stages.
func workloadConfig(o childOpts) core.Config {
	cfg := core.DefaultConfig()
	switch {
	case o.Tiny:
		cfg = core.TestConfig()
	case o.Stage == stageStudy:
		cfg.Sim.Scale = studyScale
	}
	cfg.Sim.Seed = o.Seed
	cfg.Workers = runtime.NumCPU()
	cfg.EpochSweep = o.Stage != stageStudy && !o.Trace
	if o.Trace {
		cfg.Overlap = 1
	}
	if o.Stage == stageSave || o.Stage == stageResume {
		cfg.SnapshotDir = o.SnapDir
	}
	return cfg
}

type run struct {
	o   childOpts
	cfg core.Config
	tr  *Tracer // nil when untraced
	res *childResult
}

func (r *run) scalar(name string, v float64) { r.res.Scalars[name] = v }
func (r *run) sample(name string, v float64) {
	r.res.Samples[name] = append(r.res.Samples[name], v)
}
func (r *run) output(name string, v any) { r.res.Outputs[name] = fmt.Sprint(v) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runChild executes one workload process.
func runChild(o childOpts) *childResult {
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := workloadConfig(o)
	r := &run{o: o, cfg: cfg, res: &childResult{
		Stage: o.Stage, Host: prof.Host(), Workers: cfg.Workers, Overlap: cfg.Overlap,
		Scale: cfg.Sim.Scale, Seed: o.Seed, Days: o.Days,
		Scalars: map[string]float64{}, Samples: map[string][]float64{}, Outputs: map[string]string{},
	}}
	if o.Trace {
		r.tr = NewTracer()
	}
	if o.SetupOnly {
		r.setup()
		return r.res
	}
	switch o.Stage {
	case stageDaily, stageSave:
		r.tr.Begin(rootPipeline)
		p := r.setup()
		r.hwm("setup")
		r.collect(p)
		r.hwm("collect")
		last, scan := r.days(p, p.World.Horizon(), 0, o.Days)
		r.hwm("days")
		r.checkSnapshots(p, o.Days+2)
		r.tr.End()
		r.record(p, last, scan)
		r.probes(p)
	case stageResume:
		r.tr.Begin(rootProbes)
		r.decodeCheckpoints()
		r.tr.End()
		r.tr.Begin(rootPipeline)
		p, ep := r.resume()
		if p == nil {
			r.tr.End()
			break
		}
		r.output("resume.digest", ep.Digest())
		last, scan := r.days(p, ep.Day+1, ep.Index+1, o.Days)
		r.checkSnapshots(p, o.Days)
		r.tr.End()
		r.record(p, last, scan)
	case stageStudy:
		r.tr.Begin(rootPipeline)
		p := r.setup()
		r.hwm("setup")
		r.collect(p)
		r.hwm("collect")
		scan := r.sweepSet(p)
		r.hwm("sweep")
		last, _ := r.days(p, p.World.Horizon(), 0, o.Days)
		r.hwm("days")
		r.cluster(p)
		r.hwm("cluster")
		r.tr.End()
		r.record(p, last, scan)
		r.probes(p)
	default:
		r.res.Ops.check(false, "unknown stage %q", o.Stage)
	}
	end := readRuntime()
	r.scalar("runtime.gc_cycles", float64(end.gcCycles))
	r.scalar("runtime.gc_cpu_s", end.gcCPU)
	r.res.Spans = r.tr.Spans()
	return r.res
}

// hwm records the process's peak RSS so far, after the named stage, so
// the results show which stage sets peak_rss_mb.
func (r *run) hwm(stage string) {
	r.scalar("rss_hwm_mb."+stage, float64(prof.PeakRSS())/bytesPerMiB)
}

// setup builds the pipeline (world, DNS view, sources) once, as a
// fresh process does, and times it.
func (r *run) setup() *core.Pipeline {
	r.tr.Begin("core.new")
	t0 := time.Now()
	p := core.New(r.cfg)
	r.scalar("setup_s", time.Since(t0).Seconds())
	r.tr.End()
	return p
}

// collect runs every collection epoch and compacts the store:
// Pipeline.Collect untraced, its two public halves traced.
func (r *run) collect(p *core.Pipeline) {
	if r.tr == nil {
		t0 := time.Now()
		p.Collect()
		r.scalar("collect_s", time.Since(t0).Seconds())
	} else {
		rt0 := readRuntime()
		t0 := time.Now()
		for e := 0; e < p.Cfg.Sim.Epochs; e++ {
			r.tr.Begin("sources.collect_day")
			p.Store.CollectDay(e * p.Cfg.Sim.EpochDays)
			r.tr.End()
		}
		t1 := time.Now()
		r.tr.Begin("sources.compact")
		p.Store.Compact()
		r.tr.End()
		r.scalar("sources.collect_s", t1.Sub(t0).Seconds())
		r.scalar("sources.compact_s", time.Since(t1).Seconds())
		bytes, _ := readRuntime().allocSince(rt0)
		r.scalar("sources.alloc_mb", bytes/bytesPerMiB)
		total, _ := p.Store.MemBytes()
		r.scalar("sources.bytes_per_addr", float64(total)/float64(p.Hitlist().Len()))
	}
	n := p.Hitlist().Len()
	r.res.Ops.check(n > 0, "collect: empty hitlist")
	r.output("sources.addrs", n)
}

// checkEpoch is the cheap per-epoch output check run at each publish.
func (r *run) checkEpoch(e *core.Epoch, index, day int) {
	ok := e.Index == index && e.Day == day && e.Filter != nil
	if r.cfg.EpochSweep {
		ok = ok && e.Scan != nil && len(e.Scan.Masks) == len(e.Scan.Addrs)
	}
	r.res.Ops.check(ok, "epoch %d (day %d): got index %d day %d, filter %t", index, day, e.Index, e.Day, e.Filter != nil)
}

// days runs n APD days from absolute day start, the first with epoch
// index first, and returns the last epoch and its curated sweep (nil
// without epoch sweeps).
func (r *run) days(p *core.Pipeline, start, first, n int) (*core.Epoch, *core.Scan) {
	if r.tr == nil {
		return r.daysUntraced(p, start, first, n)
	}
	return r.daysTraced(p, start, first, n)
}

// daysUntraced drives the orchestrator (Overlap-deep day pipeline) and
// stamps each publish: day0_s is loop start to the first publish,
// day_ms the publish-to-publish intervals after it. A resumed loop's
// first publish is an un-overlapped pipeline fill (probe, seal and
// sweep back to back), not an interval; it is resume_fill_s.
func (r *run) daysUntraced(p *core.Pipeline, start, first, n int) (*core.Epoch, *core.Scan) {
	var last *core.Epoch
	next := first
	var prev time.Duration
	t0 := time.Now()
	p.RunDaysFunc(start, n, func(e *core.Epoch) {
		now := time.Since(t0)
		switch {
		case e.Index == 0:
			r.scalar("day0_s", now.Seconds())
		case e.Index == first:
			r.scalar("resume_fill_s", now.Seconds())
		default:
			r.sample("day_ms", ms(now-prev))
		}
		prev = now
		r.checkEpoch(e, next, start+next-first)
		next++
		last = e
	})
	if last == nil {
		return nil, nil
	}
	return last, last.Scan
}

// daysTraced drives the same days one call at a time through the epoch
// builder: ProbeDay, Seal, Split, and the curated Sweep when the
// workload sweeps.
func (r *run) daysTraced(p *core.Pipeline, start, first, n int) (*core.Epoch, *core.Scan) {
	b := p.Builder()
	sweep := r.o.Stage != stageStudy
	var last *core.Epoch
	var scan *core.Scan
	for d := 0; d < n; d++ {
		day := start + d
		sent := p.APDProbesSent()
		rt0 := readRuntime()
		r.tr.Begin("apd.probe_day")
		draft := b.ProbeDay(day)
		dt := r.tr.End()
		_, objs := readRuntime().allocSince(rt0)
		if draft.Index() == 0 {
			r.scalar("apd.probe_day0_s", dt.Seconds())
		} else {
			probes := float64(p.APDProbesSent() - sent)
			r.sample("apd.probe_day_ms", ms(dt))
			r.sample("apd.probes", probes)
			r.sample("apd.probe_allocs", objs)
		}

		rt0 = readRuntime()
		r.tr.Begin("core.seal")
		e := b.Seal(draft)
		dt = r.tr.End()
		bytes, _ := readRuntime().allocSince(rt0)
		r.sample("core.seal_ms", ms(dt))
		r.sample("core.seal_alloc_mb", bytes/bytesPerMiB)

		r.tr.Begin("core.split")
		e.Split()
		r.sample("core.split_ms", ms(r.tr.End()))

		if sweep {
			clean := e.CleanTargets()
			rt0 = readRuntime()
			r.tr.Begin("probe.sweep")
			scan = p.Sweep(clean, day)
			dt = r.tr.End()
			_, objs = readRuntime().allocSince(rt0)
			r.sweepSample(dt, len(clean), objs)
		}
		r.checkEpoch(e, first+d, day)
		last = e
	}
	if last != nil {
		if probes := r.res.Samples["apd.probes"]; len(probes) > 0 {
			r.output("apd.probes_per_day", int64(median(probes)))
		}
		total, _, _, _ := p.History().MemBytes()
		r.scalar("apd.history_bytes_per_id", float64(total)/float64(len(last.Merged)))
	}
	return last, scan
}

// sweepSample records one five-protocol sweep of n targets.
func (r *run) sweepSample(dt time.Duration, n int, allocs float64) {
	r.sample("probe.sweep_ms", ms(dt))
	r.sample("probe.sweep_ns", float64(dt))
	r.sample("probe.sweep_probes", float64(n*wire.NumProtos))
	r.sample("probe.sweep_allocs", allocs)
}

// sweepSet is study's first full-hitlist five-protocol sweep: every
// host it reaches is touched for the first time.
func (r *run) sweepSet(p *core.Pipeline) *core.Scan {
	rt0 := readRuntime()
	r.tr.Begin("probe.sweep_set")
	t0 := time.Now()
	scan := p.SweepSet(p.Hitlist(), p.World.Horizon())
	dt := time.Since(t0)
	r.tr.End()
	r.scalar("sweep_s", dt.Seconds())
	if r.tr != nil {
		_, objs := readRuntime().allocSince(rt0)
		r.sweepSample(dt, len(scan.Addrs), objs)
	}
	r.res.Ops.check(len(scan.Masks) == p.Hitlist().Len() && len(scan.Addrs) == len(scan.Masks),
		"sweep: %d masks for %d targets (hitlist %d)", len(scan.Masks), len(scan.Addrs), p.Hitlist().Len())
	return scan
}

// groupMin is the scale-adjusted ≥100-address group threshold the
// paper's clustering figures use.
func groupMin(scale float64) int {
	return max(int(100*scale), 20)
}

// cluster is study's §4 analysis: entropy clustering of /32s (F9-32,
// ByPrefixLen) and of BGP prefixes (ByBGPPrefix), each with an elbow
// ChooseK.
func (r *run) cluster(p *core.Pipeline) {
	sorted := p.Hitlist().SortedSeq()
	threshold := groupMin(p.Cfg.Sim.Scale)
	var groupT, chooseT time.Duration
	var groups int
	one := func(name string, group func() []entropy.Group) int {
		r.tr.Begin("entropy." + name)
		t0 := time.Now()
		g := group()
		vecs := entropy.Vectors(g)
		t1 := time.Now()
		r.tr.End()
		r.tr.Begin("cluster.choose_k")
		res, _ := cluster.ChooseK(vecs, min(clusterKMax, len(vecs)), clusterSeed, p.Cfg.Workers)
		chooseT += time.Since(t1)
		r.tr.End()
		groupT += t1.Sub(t0)
		groups += len(g)
		r.res.Ops.check(len(vecs) > 0 && res.K >= 1 && res.K <= clusterKMax,
			"cluster %s: k=%d over %d groups", name, res.K, len(vecs))
		return res.K
	}
	k32 := one("by_prefix_len", func() []entropy.Group {
		return entropy.ByPrefixLen(sorted, 32, threshold, 9, 32, p.Cfg.Workers)
	})
	kBGP := one("by_bgp_prefix", func() []entropy.Group {
		return entropy.ByBGPPrefix(sorted, p.World.Table, threshold, 9, 32, p.Cfg.Workers)
	})
	r.scalar("cluster_s", (groupT + chooseT).Seconds())
	r.scalar("entropy.group_s", groupT.Seconds())
	r.scalar("cluster.choosek_s", chooseT.Seconds())
	r.output("cluster.k", k32)
	r.output("cluster.k_bgp", kBGP)
	r.output("entropy.groups", groups)
}

// resume restarts the day pipeline from checkpoint ResumeAt in this
// fresh process.
func (r *run) resume() (*core.Pipeline, *core.Epoch) {
	r.tr.Begin("core.resume")
	t0 := time.Now()
	p, ep, err := core.Resume(r.cfg, r.o.SnapDir, r.o.ResumeAt)
	r.scalar("resume_s", time.Since(t0).Seconds())
	r.tr.End()
	r.res.Ops.check(err == nil, "resume from checkpoint %d: %v", r.o.ResumeAt, err)
	if err != nil {
		return nil, nil
	}
	return p, ep
}

// checkSnapshots counts the day loop's checkpoint writes as operations:
// want files were due, and each one missing is a failed write.
func (r *run) checkSnapshots(p *core.Pipeline, want int) {
	if p.Cfg.SnapshotDir == "" || r.tr != nil {
		return
	}
	st := p.SnapshotStats()
	r.res.Ops.Attempted += want
	if missing := want - st.Files; missing > 0 || p.SnapshotErr() != nil {
		r.res.Ops.Failed += max(missing, 1)
		r.res.Ops.Errors = append(r.res.Ops.Errors, fmt.Sprintf("checkpoints: %d of %d written: %v", st.Files, want, p.SnapshotErr()))
	}
	r.scalar("persist.save_s", st.Seconds)
	r.scalar("persist.bytes", float64(st.Bytes))
}

// record computes the run's deterministic outputs, outside every timed
// region: the last epoch's digest, partition and candidate counts, the
// APD probe budget, and the responsiveness of the final sweep.
func (r *run) record(p *core.Pipeline, last *core.Epoch, scan *core.Scan) {
	if last == nil {
		r.res.Ops.check(false, "no epoch published")
		return
	}
	clean, aliased, _ := last.Split()
	r.output("final.index", last.Index)
	r.output("final.digest", last.Digest())
	r.output("final.clean", len(clean))
	r.output("final.aliased", len(aliased))
	r.output("final.candidates", len(last.Candidates))
	r.output("apd.probes_total", p.APDProbesSent())
	r.res.Ops.check(len(clean)+len(aliased) == last.Hitlist.Len(),
		"split: %d clean + %d aliased != %d hitlist", len(clean), len(aliased), last.Hitlist.Len())
	if scan != nil {
		raw := make([]byte, len(scan.Masks))
		responsive := 0
		for i, m := range scan.Masks {
			raw[i] = uint8(m)
			if m.Any() {
				responsive++
			}
		}
		sum := sha256.Sum256(raw)
		r.output("probe.responsive", responsive)
		r.output("probe.sweep_sha", hex.EncodeToString(sum[:]))
		r.res.Ops.check(responsive > 0, "sweep: no responsive targets")
	}
}

// probes runs the traced process's extra measurements under their own
// root span: candidate derivation as day 0 runs it, then netsim on a
// fresh world over this workload's own hitlist — build time and bytes
// per host, the first-touch cost per probe ((first − repeated) same-day
// sweep, uncapped), and the warm batched responder per probe. The
// pipeline's world is released first, so the fresh world replaces it.
func (r *run) probes(p *core.Pipeline) {
	if r.tr == nil {
		return
	}
	r.tr.Begin(rootProbes)
	defer r.tr.End()

	r.tr.Begin("apd.candidates")
	cands := apd.HitlistCandidates(p.Hitlist(), p.Cfg.MinTargets)
	cands = append(cands, apd.BGPCandidates(p.World.Table)...)
	r.scalar("apd.candidates_s", r.tr.End().Seconds())
	r.output("apd.candidates", len(cands))

	addrs := p.Hitlist().Sorted()
	day := p.World.Horizon()
	p = nil
	quiesce()

	r.tr.Begin("netsim.new")
	w := netsim.New(r.cfg.Sim)
	r.scalar("netsim.build_s", r.tr.End().Seconds())
	r.scalar("netsim.bytes_per_host", w.MemBytes().BytesPerHost())

	sc := probe.New(w, probe.WithWorkers(r.cfg.Workers), probe.WithSeed(uint64(r.cfg.Sim.Seed)))
	r.tr.Begin("netsim.sweep_first")
	sc.SweepSeq(ip6.Addrs(addrs), day)
	first := r.tr.End()
	r.tr.Begin("netsim.sweep_repeat")
	sc.SweepSeq(ip6.Addrs(addrs), day)
	repeat := r.tr.End()
	r.scalar("netsim.first_touch_ns", float64(first-repeat)/float64(len(addrs)*wire.NumProtos))

	at := make([]wire.Time, batchChunk)
	for i := range at {
		at[i] = wire.Time(i) * 3
	}
	var cols wire.ResultColumns
	cols.ResetOK(batchChunk)
	r.tr.Begin("netsim.probe_batch")
	for lo := 0; lo < len(addrs); lo += batchChunk {
		hi := min(lo+batchChunk, len(addrs))
		cols.OK.Reset(hi - lo)
		w.ProbeBatch(addrs[lo:hi], wire.ICMPv6, day, at[:hi-lo], &cols, 0)
	}
	r.scalar("netsim.batch_warm_ns", float64(r.tr.End())/float64(len(addrs)))
}

// decodeCheckpoints reads every checkpoint file of the snapshot
// directory through snap.Reader — framing, every section's payload and
// its checksum — apart from the world rebuild and narrowing replay
// Resume adds. In the traced restart these are the untraced run's
// files: the traced save process drives its days through the epoch
// builder, which writes no checkpoints.
func (r *run) decodeCheckpoints() {
	if r.tr == nil {
		return
	}
	paths, err := filepath.Glob(filepath.Join(r.o.SnapDir, "*.snap"))
	r.res.Ops.check(err == nil && len(paths) > 0, "checkpoints: %d files: %v", len(paths), err)
	var bytes int64
	r.tr.Begin("persist.decode")
	for _, path := range paths {
		n, err := decodeSnap(path)
		r.res.Ops.check(err == nil, "decode %s: %v", filepath.Base(path), err)
		bytes += n
	}
	dt := r.tr.End()
	r.scalar("persist.decode_mb_s", float64(bytes)/bytesPerMiB/dt.Seconds())
}

// decodeSnap reads one checkpoint file section by section; Next reads
// each payload and verifies its checksum. The sections' column layout
// stays internal/core's. It returns the file's size.
func decodeSnap(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	rd, err := snap.NewReader(f)
	if err != nil {
		return 0, err
	}
	for {
		_, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return st.Size(), nil
		}
		if err != nil {
			return 0, err
		}
	}
}
