// Command bench6 benchmarks the epoch day orchestrator against the
// fully serial day loop and emits BENCH_6.json: wall-clock for a
// multi-day APD + curated-sweep run at each overlap depth, plus the
// standing sweep and APD numbers. The environment is recorded (CPUs,
// GOMAXPROCS) because the orchestrator's speedup is pipeline
// parallelism across days — on a single-core host the overlap is
// structural only and the depths tie; the gain materializes wherever
// seal/sweep work runs beside the next day's probe chain.
//
// Usage:
//
//	bench6 [-scale 1.0] [-days 14] [-workers 8] [-out BENCH_6.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"expanse/internal/core"
	"expanse/internal/prof"
)

type run struct {
	Name        string  `json:"name"`
	Overlap     int     `json:"overlap"`
	Seconds     float64 `json:"seconds"`
	Epochs      int     `json:"epochs"`
	Day0Cands   int     `json:"day0_candidates"`
	FinalCands  int     `json:"final_candidates"`
	CleanFinal  int     `json:"final_clean_targets"`
	APDProbes   int     `json:"apd_probes_sent"`
	SpeedupOver float64 `json:"speedup_vs_serial"`
}

type report struct {
	Bench        string        `json:"bench"`
	Scale        float64       `json:"scale"`
	Days         int           `json:"days"`
	Workers      int           `json:"workers"`
	Host         prof.HostMeta `json:"host"`
	HitlistSize  int           `json:"hitlist_size"`
	CollectSec   float64       `json:"collect_seconds"`
	SweepSec     float64       `json:"full_sweep_seconds"`
	SweepTargets int           `json:"full_sweep_targets"`
	Runs         []run         `json:"runs"`
	Note         string        `json:"note"`
}

func main() {
	scale := flag.Float64("scale", 1.0, "simulation scale")
	days := flag.Int("days", 14, "APD days per run")
	workers := flag.Int("workers", 0, "scan-engine worker shards per protocol (0 = default)")
	out := flag.String("out", "BENCH_6.json", "output path")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Sim.Scale = *scale
	cfg.Workers = *workers
	cfg.EpochSweep = true // seal stage sweeps each day's curated targets

	rep := report{
		Bench: "epoch day orchestrator vs serial day loop",
		Scale: *scale,
		Days:  *days,
		Host:  prof.Host(),
	}

	var serial float64
	for _, depth := range []int{1, 2, 3} {
		c := cfg
		c.Overlap = depth
		p := core.New(c)
		t0 := time.Now()
		p.Collect()
		collect := time.Since(t0).Seconds()
		if depth == 1 {
			rep.Workers = p.Cfg.Workers
			rep.HitlistSize = p.Hitlist().Len()
			rep.CollectSec = collect
			// Standing sweep benchmark: one five-protocol pass over the
			// full hitlist through the batched columnar path.
			t0 = time.Now()
			s := p.SweepSet(p.Hitlist(), p.World.Horizon())
			rep.SweepSec = time.Since(t0).Seconds()
			rep.SweepTargets = len(s.Addrs)
		}
		t0 = time.Now()
		var first, last *core.Epoch
		epochs := 0
		p.RunDaysFunc(p.World.Horizon(), *days, func(e *core.Epoch) {
			if first == nil {
				first = e
			}
			last = e
			epochs++
		})
		dt := time.Since(t0).Seconds()
		name := fmt.Sprintf("orchestrated depth %d", depth)
		if depth == 1 {
			name = "serial day loop"
			serial = dt
		}
		r := run{
			Name:        name,
			Overlap:     depth,
			Seconds:     dt,
			Epochs:      epochs,
			Day0Cands:   len(first.Candidates),
			FinalCands:  len(last.Candidates),
			CleanFinal:  len(last.CleanTargets()),
			APDProbes:   p.APDProbesSent(),
			SpeedupOver: serial / dt,
		}
		rep.Runs = append(rep.Runs, r)
		fmt.Printf("%-21s %6.2fs  speedup %.2fx  epochs %d  clean %d\n",
			name, dt, r.SpeedupOver, r.Epochs, r.CleanFinal)
	}
	rep.Note = "Overlap runs day d's window merge, filter compile and curated sweep " +
		"concurrently with day d+1's probe chain; published epochs are byte-identical " +
		"at every depth. Speedup scales with free cores — on a 1-CPU host the depths " +
		"tie and the pipelining is structural only."

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f.Close()
	fmt.Println("wrote", *out)
}
