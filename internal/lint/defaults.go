package lint

// This file is the suite's single source of truth for what the repo
// considers sealed, deterministic and hot. cmd/expanselint runs
// DefaultAnalyzers over every package; changing an invariant's scope
// means changing a table here, in one reviewed place.

// DefaultSealedTypes lists the RCU-published snapshot types and their
// seal packages. core.Epoch is the published day (Pipeline.Latest);
// ip6.FrozenView pins the hitlist a published epoch was sealed
// against; apd.DayColumn and apd.CandidateTable are the write-once
// history column and frozen candidate universe the window merge reads
// lock-free.
var DefaultSealedTypes = []SealedType{
	{Qualified: "expanse/internal/core.Epoch", SealPkg: "expanse/internal/core"},
	{Qualified: "expanse/internal/ip6.FrozenView", SealPkg: "expanse/internal/ip6"},
	{Qualified: "expanse/internal/apd.DayColumn", SealPkg: "expanse/internal/apd"},
	{Qualified: "expanse/internal/apd.CandidateTable", SealPkg: "expanse/internal/apd"},
	// netsim.Internet is the sealed columnar world plane: sorted host
	// columns, flat net/region/ISP columns. Only construction (inside the
	// package) writes it; every probe-time reader depends on the freeze.
	{Qualified: "expanse/internal/netsim.Internet", SealPkg: "expanse/internal/netsim"},
}

// DefaultDetRand scopes detrand to the planes whose outputs must be
// byte-identical for a fixed seed at any worker count, and to seedrand,
// which derives their per-key draws. internal/prof measures wall-clock on
// purpose and is exempt explicitly, so the carve-out survives set growth.
var DefaultDetRand = DetRandConfig{
	Deterministic: []string{
		"expanse/internal/core",
		"expanse/internal/apd",
		"expanse/internal/probe",
		"expanse/internal/netsim",
		"expanse/internal/cluster",
		"expanse/internal/entropy",
		"expanse/internal/seedrand",
	},
	Exempt: []string{
		"expanse/internal/prof",
	},
}

// DefaultHotFuncs designates the per-probe and per-candidate hot paths.
var DefaultHotFuncs = []HotFunc{
	{PkgPath: "expanse/internal/probe", Func: "ScanColumns"},
	{PkgPath: "expanse/internal/probe", Func: "scanColumns"},
	{PkgPath: "expanse/internal/probe", Func: "scanChunk"},
	{PkgPath: "expanse/internal/netsim", Func: "ProbeBatch"},
	{PkgPath: "expanse/internal/netsim", Func: "emit"},
	{PkgPath: "expanse/internal/netsim", Func: "newMachine"},
	// The world plane's sorted-column binary searches and batch-path merge
	// cursors (hostRun.lookup and ivalRun.lookup both match "lookup").
	{PkgPath: "expanse/internal/netsim", Func: "find"},
	{PkgPath: "expanse/internal/netsim", Func: "search"},
	{PkgPath: "expanse/internal/netsim", Func: "lookup"},
	{PkgPath: "expanse/internal/apd", Func: "ProbeDayFlat"},
	{PkgPath: "expanse/internal/apd", Func: "FanOut"},
	{PkgPath: "expanse/internal/apd", Func: "MergeColumns"},
	{PkgPath: "expanse/internal/wire", Func: "ProbeBatchInto"},
	{PkgPath: "expanse/internal/ip6", Func: "LookupInterval"},
	{PkgPath: "expanse/internal/ip6", Func: "CompileIntervals"},
}

// DefaultAnalyzers returns the full suite wired to the repo tables.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewMapOrder(),
		NewSealedWrite(DefaultSealedTypes),
		NewDetRand(DefaultDetRand),
		NewHotAlloc(DefaultHotFuncs),
	}
}
