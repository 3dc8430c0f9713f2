package lint_test

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"

	"expanse/internal/lint"
	"expanse/internal/lint/linttest"
)

const src = "testdata/src"

// fixtureSealed seals the fixture's model types to their defining
// package, mirroring DefaultSealedTypes' shape.
var fixtureSealed = []lint.SealedType{
	{Qualified: "sealedtypes.Epoch", SealPkg: "sealedtypes"},
	{Qualified: "sealedtypes.Column", SealPkg: "sealedtypes"},
	{Qualified: "sealedtypes.World", SealPkg: "sealedtypes"},
	{Qualified: "sealedtypes.Net", SealPkg: "sealedtypes"},
}

// fixtureDetRand marks the detrand fixtures deterministic, with the
// exempt package carved back out.
var fixtureDetRand = lint.DetRandConfig{
	Deterministic: []string{"detrand", "detrandexempt", "allowfix"},
	Exempt:        []string{"detrandexempt"},
}

// fixtureHot designates the fixture's hot functions.
var fixtureHot = []lint.HotFunc{
	{PkgPath: "hotalloc", Func: "ScanColumns"},
	{PkgPath: "hotalloc", Func: "MergeColumns"},
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, src, "maporder", lint.NewMapOrder())
}

func TestSealedWrite(t *testing.T) {
	linttest.Run(t, src, "sealedwrite", lint.NewSealedWrite(fixtureSealed))
}

// TestSealedWriteBuilder pins the other half of the contract: inside
// the seal package the builder writes freely — zero diagnostics.
func TestSealedWriteBuilder(t *testing.T) {
	linttest.Run(t, src, "sealedtypes", lint.NewSealedWrite(fixtureSealed))
}

// TestSealedWriteWorld pins the columnar-world half of the fixture: the
// post-seal mutations (column patches, rank swaps, topology rewires)
// that the netsim.Internet entry in DefaultSealedTypes exists to catch.
func TestSealedWriteWorld(t *testing.T) {
	linttest.Run(t, src, "worldseal", lint.NewSealedWrite(fixtureSealed))
}

func TestDetRand(t *testing.T) {
	linttest.Run(t, src, "detrand", lint.NewDetRand(fixtureDetRand))
}

// TestDetRandExempt pins the carve-out: a package in both sets is
// exempt (internal/prof).
func TestDetRandExempt(t *testing.T) {
	linttest.Run(t, src, "detrandexempt", lint.NewDetRand(fixtureDetRand))
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, src, "hotalloc", lint.NewHotAlloc(fixtureHot))
}

// TestAllow pins the suppression mechanism end to end: //lint:allow
// silences exactly the named analyzer on exactly the annotated line;
// stale and malformed allows are themselves findings.
func TestAllow(t *testing.T) {
	linttest.Run(t, src, "allowfix", lint.NewMapOrder(), lint.NewDetRand(fixtureDetRand))
}

// TestDefaultAnalyzers pins the shipped suite: four analyzers, unique
// names, all documented.
func TestDefaultAnalyzers(t *testing.T) {
	as := lint.DefaultAnalyzers()
	if len(as) != 4 {
		t.Fatalf("DefaultAnalyzers: got %d analyzers, want 4", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{"maporder", "sealedwrite", "detrand", "hotalloc"} {
		if !seen[name] {
			t.Errorf("missing analyzer %q", name)
		}
	}
}

// TestDefaultTablesResolve pins the repo tables against the tree: every
// DefaultHotFuncs entry must name a function or method declared in its
// package, every DefaultSealedTypes entry a type declared there, and
// every DefaultDetRand path a package of the module. A deletion or
// rename would otherwise drop the entry's coverage silently, since an
// analyzer never reports on a name it cannot find.
func TestDefaultTablesResolve(t *testing.T) {
	modPath, modRoot, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader(modPath, modRoot)
	load := func(path string) *lint.Package {
		t.Helper()
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		return pkg
	}
	for _, h := range lint.DefaultHotFuncs {
		found := false
		for _, f := range load(h.PkgPath).Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == h.Func {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("DefaultHotFuncs: %s.%s names no declared function or method", h.PkgPath, h.Func)
		}
	}
	for _, s := range lint.DefaultSealedTypes {
		i := strings.LastIndex(s.Qualified, ".")
		if i < 0 {
			t.Errorf("DefaultSealedTypes: %q is not a qualified type name", s.Qualified)
			continue
		}
		if _, ok := load(s.Qualified[:i]).Types.Scope().Lookup(s.Qualified[i+1:]).(*types.TypeName); !ok {
			t.Errorf("DefaultSealedTypes: %s names no declared type", s.Qualified)
		}
	}
	for _, path := range slices.Concat(lint.DefaultDetRand.Deterministic, lint.DefaultDetRand.Exempt) {
		if _, err := loader.Load(path); err != nil {
			t.Errorf("DefaultDetRand: %s names no package in the module: %v", path, err)
		}
	}
}
