package ssa

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// checkSrc parses and type-checks one file and returns its syntax and info.
func checkSrc(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, info, pkg
}

// decl returns the declaration of the named function.
func decl(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// trackT tracks *p.T values.
func trackT(typ types.Type) bool {
	p, ok := typ.(*types.Pointer)
	if !ok {
		return false
	}
	return IsNamed(p.Elem(), "p", "T")
}

const flowSrc = `package p

type T struct{ next *T }

var global *T

type box struct{ t *T }

func make2() (*T, *T) { return nil, nil }

func flows(t *T, b *box, n int) *T {
	u := t                 // alias of the parameter
	fresh := &T{}          // fresh composite
	loaded := b.t          // load from a field
	g := global            // global
	called, other := make2() // call results via tuple assign
	_ = other
	chained := u
	_ = fresh
	_ = loaded
	_ = g
	_ = called
	return chained
}
`

func flowFor(t *testing.T, f *ast.File, info *types.Info, name string) (*Flow, *ast.FuncDecl) {
	fd := decl(t, f, name)
	return BuildFlow(info, fd.Recv, fd.Type, fd.Body, trackT), fd
}

// identVal looks up the canonical value of the named local in the body.
func identVal(t *testing.T, flow *Flow, fd *ast.FuncDecl, name string) ValueID {
	t.Helper()
	var v ValueID
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name && !found {
			if got, ok := flow.ValueOf(id); ok {
				v, found = got, true
			}
		}
		return true
	})
	if !found {
		t.Fatalf("no tracked value for %q", name)
	}
	return v
}

func TestFlowParamAliasing(t *testing.T) {
	_, f, info, _ := checkSrc(t, flowSrc)
	flow, fd := flowFor(t, f, info, "flows")

	params := flow.TrackedParams()
	if len(params) != 1 || params[0].Index != 0 || params[0].Obj.Name() != "t" {
		t.Fatalf("tracked params = %+v, want just t at flat index 0", params)
	}

	// u and chained alias the parameter; the union-find must canonicalize
	// all three to one value with a param origin.
	pv := flow.ValueOfParam(params[0])
	if got := identVal(t, flow, fd, "u"); got != pv {
		t.Fatalf("u not unified with parameter: %q vs %q", got, pv)
	}
	if got := identVal(t, flow, fd, "chained"); got != pv {
		t.Fatalf("chained not unified with parameter through u: %q vs %q", got, pv)
	}
	if !flow.HasOrigin(pv, OriginParam) {
		t.Fatal("parameter value lacks param origin")
	}
}

func TestFlowIntrinsicOrigins(t *testing.T) {
	_, f, info, _ := checkSrc(t, flowSrc)
	flow, fd := flowFor(t, f, info, "flows")

	cases := []struct {
		local string
		kind  OriginKind
	}{
		{"fresh", OriginFresh},
		{"loaded", OriginLoad},
		{"g", OriginGlobal},
		{"called", OriginCall},
		{"other", OriginCall},
	}
	for _, tc := range cases {
		v := identVal(t, flow, fd, tc.local)
		if !flow.HasOrigin(v, tc.kind) {
			t.Errorf("%s: lacks origin kind %d", tc.local, tc.kind)
		}
		if flow.HasOrigin(v, OriginParam) {
			t.Errorf("%s: spuriously unified with a parameter", tc.local)
		}
	}
}

func TestFlowReceiverIsFlatIndexZero(t *testing.T) {
	src := `package p
type T struct{}
type S struct{}
func (s *S) m(a *T, b *T) {}
`
	_, f, info, _ := checkSrc(t, src)
	fd := decl(t, f, "m")
	// Track *T only: receiver *S occupies flat index 0 without being
	// tracked, so a and b are flat indices 1 and 2.
	flow := BuildFlow(info, fd.Recv, fd.Type, fd.Body, trackT)
	params := flow.TrackedParams()
	if len(params) != 2 || params[0].Index != 1 || params[1].Index != 2 {
		t.Fatalf("flat indices = %+v, want a@1 b@2", params)
	}
}

const callSrc = `package p

type T struct{}

func (t *T) M() {}

type I interface{ M() }

func target() {}

func calls(t *T, i I, fv func()) {
	target()
	t.M()
	i.M()
	fv()
}
`

func callAt(t *testing.T, fd *ast.FuncDecl, idx int) *ast.CallExpr {
	t.Helper()
	var calls []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	if idx >= len(calls) {
		t.Fatalf("only %d calls", len(calls))
	}
	return calls[idx]
}

func TestStaticCallee(t *testing.T) {
	_, f, info, _ := checkSrc(t, callSrc)
	fd := decl(t, f, "calls")

	if fn := StaticCallee(info, callAt(t, fd, 0)); fn == nil || fn.Name() != "target" {
		t.Fatalf("plain call resolved to %v", fn)
	}
	if fn := StaticCallee(info, callAt(t, fd, 1)); fn == nil || fn.FullName() != "(*p.T).M" {
		t.Fatalf("method call resolved to %v", fn)
	}
	if StaticCallee(info, callAt(t, fd, 2)) != nil {
		t.Fatal("StaticCallee resolved an interface dispatch")
	}
	if StaticCallee(info, callAt(t, fd, 3)) != nil {
		t.Fatal("StaticCallee resolved a func value call")
	}
}

func TestDecls(t *testing.T) {
	src := `package p

type A struct{}
func (A) M() {}
type B struct{}
func (*B) N()
func free() {}
`
	_, f, info, _ := checkSrc(t, src)
	names := map[string]bool{}
	for fn := range Decls(info, []*ast.File{f}) {
		names[fn.Name()] = true
	}
	if !names["M"] || !names["free"] {
		t.Fatalf("Decls missed declarations: %v", names)
	}
	if names["N"] {
		t.Fatal("Decls included a declaration without a body")
	}
}

func TestTypeHelpers(t *testing.T) {
	src := `package p
type T struct{}
type Alias = T
var v *T
`
	_, f, info, pkg := checkSrc(t, src)
	_ = f
	_ = info
	tt := pkg.Scope().Lookup("v").Type()
	if !IsNamed(tt, "p", "T") {
		t.Fatal("IsNamed failed to unwrap the pointer")
	}
	if IsNamed(tt, "q", "T") || IsNamed(tt, "p", "U") {
		t.Fatal("IsNamed matched the wrong package or name")
	}
	if n := NamedOf(tt); n == nil || n.Obj().Name() != "T" {
		t.Fatalf("NamedOf = %v", n)
	}
	if NamedOf(types.Typ[types.Int]) != nil {
		t.Fatal("NamedOf invented a named type for int")
	}
}
