package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// checkPkg type-checks one single-file package.
func checkPkg(t *testing.T, path, src string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}, pkg, info
}

type testFact struct {
	N int `json:"n"`
}

func TestFactKey(t *testing.T) {
	_, _, pkg, _ := checkPkg(t, "kp", `package kp
type T struct{}
func (t *T) M() {}
func F() {}
var V int
`)
	f := pkg.Scope().Lookup("F")
	if got := FactKey(f); got != "kp.F" {
		t.Errorf("FactKey(F) = %q", got)
	}
	tt := pkg.Scope().Lookup("T").Type()
	m, _, _ := types.LookupFieldOrMethod(types.NewPointer(tt), true, pkg, "M")
	if got := FactKey(m); got != "(*kp.T).M" {
		t.Errorf("FactKey(M) = %q", got)
	}
	if got := FactKey(pkg.Scope().Lookup("V")); got != "kp.V" {
		t.Errorf("FactKey(V) = %q", got)
	}
	if FactKey(nil) != "" {
		t.Error("FactKey(nil) must be empty")
	}
}

func TestFactStoreRoundTrip(t *testing.T) {
	s := NewFactStore()
	if err := s.export("an", "kp.F", &testFact{N: 7}); err != nil {
		t.Fatal(err)
	}
	var out testFact
	if !s.Lookup("an", "kp.F", &out) || out.N != 7 {
		t.Fatalf("lookup = %+v", out)
	}
	if s.Lookup("other", "kp.F", &out) {
		t.Fatal("fact leaked across analyzers")
	}
	if got := s.Keys("an"); len(got) != 1 || got[0] != "kp.F" {
		t.Fatalf("Keys = %v", got)
	}
	// A lookup decodes a copy: mutating it leaves the stored fact intact.
	out.N = 0
	if !s.Lookup("an", "kp.F", &out) || out.N != 7 {
		t.Fatalf("second lookup = %+v", out)
	}
}

// TestSessionFactsAndSuppression: a session shares facts between Run calls
// (dependency first, dependent second — the driver's toposorted order), and
// Result separates suppressed findings from live ones.
func TestSessionFactsAndSuppression(t *testing.T) {
	exporter := &Analyzer{
		Name: "testan",
		Doc:  "test analyzer",
		Run: func(p *Pass) error {
			p.ExportObjectFact(p.Pkg.Scope().Lookup("Dep"), &testFact{N: 41})
			return nil
		},
	}
	session := NewSession()
	fset1, files1, pkg1, info1 := checkPkg(t, "dep", "package dep\n\nfunc Dep() {}\n")
	if _, err := session.Run(fset1, files1, pkg1, info1, []*Analyzer{exporter}); err != nil {
		t.Fatal(err)
	}

	importerAn := &Analyzer{
		Name: "testan",
		Doc:  "test analyzer",
		Run: func(p *Pass) error {
			var f testFact
			if !p.ImportObjectFact(pkg1.Scope().Lookup("Dep"), &f) {
				return nil
			}
			// Two findings: line 4 is suppressed in the source below.
			pos := p.Files[0].Decls[0].Pos()
			p.Reportf(pos, "fact says %d", f.N+1)
			p.Reportf(p.Files[0].Decls[1].Pos(), "unsuppressed")
			return nil
		},
	}

	src := `package use

//lint:allow testan -- seeded suppression
func a() {}

func b() {}
`
	fset2, files2, pkg2, info2 := checkPkg(t, "use", src)
	res, err := session.Run(fset2, files2, pkg2, info2, []*Analyzer{importerAn})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 1 || res.Diags[0].Message != "unsuppressed" {
		t.Fatalf("Diags = %+v, want only the unsuppressed finding", res.Diags)
	}
	if len(res.Suppressed) != 1 || res.Suppressed[0].Message != "fact says 42" {
		t.Fatalf("Suppressed = %+v, want the fact-derived finding", res.Suppressed)
	}
	if len(res.Allows) != 1 || res.Allows[0].Analyzer != "testan" {
		t.Fatalf("Allows = %+v", res.Allows)
	}
}
