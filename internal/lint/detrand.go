package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetRandConfig scopes the detrand analyzer to the deterministic
// planes.
type DetRandConfig struct {
	// Deterministic lists import-path prefixes where nondeterminism
	// sources are forbidden.
	Deterministic []string
	// Exempt lists import-path prefixes carved back out (benchmark
	// harnesses and profilers, where wall-clock is the point). They
	// are checked first, so an exempt prefix inside a deterministic
	// prefix wins.
	Exempt []string
}

// NewDetRand returns the detrand analyzer: the pipeline's planes must
// produce byte-identical output for a fixed seed at any worker count,
// so inside them every source of nondeterminism is a bug — time.Now
// (wall clock leaking into state), the global math/rand functions
// (process-wide source, seeded who-knows-where, shared across
// goroutines), and crypto/rand (hardware entropy). Seeded generators
// (rand.New(rand.NewSource(seed)), or seedrand.New(key) for a few draws
// per key) remain the sanctioned pattern; the global-function check also
// catches "unseeded" construction like rand.NewSource(rand.Int63()).
func NewDetRand(cfg DetRandConfig) *Analyzer {
	a := &Analyzer{
		Name: "detrand",
		Doc:  "flags wall-clock and global/unseeded randomness inside the deterministic planes",
	}
	a.Run = func(p *Pass) { runDetRand(p, cfg) }
	return a
}

// Global math/rand (and v2) functions driven by the shared process
// source. rand.New/NewSource/NewPCG/NewChaCha8/NewZipf take explicit
// seeds and stay legal.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true, "N": true,
}

func runDetRand(p *Pass, cfg DetRandConfig) {
	path := p.Pkg.Path()
	for _, ex := range cfg.Exempt {
		if strings.HasPrefix(path, ex) {
			return
		}
	}
	active := false
	for _, det := range cfg.Deterministic {
		if path == det || strings.HasPrefix(path, det+"/") {
			active = true
			break
		}
	}
	if !active {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeFunc(p, call)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			sig, _ := obj.Type().(*types.Signature)
			if sig == nil || sig.Recv() != nil {
				return true
			}
			switch pkg, name := obj.Pkg().Path(), obj.Name(); {
			case pkg == "time" && name == "Now":
				p.Reportf(call.Pos(), "time.Now in deterministic plane %s: wall clock must not reach pipeline state (use the simulated day/wire.Time)", path)
			case (pkg == "math/rand" || pkg == "math/rand/v2") && globalRand[name]:
				p.Reportf(call.Pos(), "global %s.%s in deterministic plane %s: draws from the process-wide source; use an explicitly seeded *rand.Rand", pkg, name, path)
			case pkg == "crypto/rand":
				p.Reportf(call.Pos(), "crypto/rand.%s in deterministic plane %s: hardware entropy is nondeterministic by design", name, path)
			}
			return true
		})
	}
}

// calleeFunc resolves a call's callee to a *types.Func, or nil.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj, _ := p.ObjectOf(fun.Sel).(*types.Func)
		return obj
	case *ast.Ident:
		obj, _ := p.ObjectOf(fun).(*types.Func)
		return obj
	}
	return nil
}
