// Package poolescape machine-checks the PR-9 transaction reclamation rule:
// a pooled *core.Txn may only be recycled if its pointer never escaped the
// owning goroutine, so every operation that publishes the pointer must mark
// the transaction shared first. The hand-maintained escape-point list in
// internal/core/txn.go used to be the enforcement mechanism; this analyzer
// derives that list instead (see EscapePoints) and flags any new escape edge
// that is not dominated by a MarkShared call.
//
// The analysis is interprocedural through framework facts: every function
// gets a Summary describing which of its pooled-pointer parameters escape
// and which it marks shared, and callers consult callee summaries. An
// escape edge is any of:
//
//   - a store of a tracked pointer into a struct field, map/slice/array
//     element, package-level variable, or through a pointer;
//   - a channel send or an append argument;
//   - capture by a goroutine (`go` statement arguments, receivers, or
//     closed-over variables);
//   - a composite literal embedding the pointer;
//   - returning a pointer that was itself loaded from a field or global —
//     the function hands out a retained reference.
//
// An escape is sanctioned when the same value receives a MarkShared call
// anywhere in the function (all escapes happen on the owner goroutine before
// publication — txn.go's reclamation rule — so order within the body is not
// checked), or when it is passed to a callee whose summary marks that
// parameter.
//
// Deliberate approximations, chosen for zero false-positive noise on the
// repo: calls into packages outside the module (or through interfaces and
// function values) are not escape edges, and escapes of a parameter inside a
// callee are reported in the callee, not re-reported at every caller.
// Test files are summarized but not diagnosed — tests construct transactions
// directly and control the entire lifecycle, including whether PutTxn is
// ever called, so pool-recycling hazards cannot arise there.
//
// Types annotated `tebaldi:txnowner` are owner handles (e.g. engine.Tx):
// storing the pointer into their fields is ownership transfer on the same
// goroutine, not an escape. The annotation is exported as a fact, so
// cross-package stores into owner types are recognized too.
package poolescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/ssa"
)

// Name is the analyzer's registered name.
const Name = "poolescape"

// CorePath is the package that owns the pooled transaction type.
const CorePath = "repro/internal/core"

var Analyzer = &framework.Analyzer{
	Name: Name,
	Doc: "flag *core.Txn escape edges not sanctioned by MarkShared " +
		"(pool reclamation rule from PR 9: a recycled transaction must not be reachable from another goroutine)",
	Run: run,
}

// Summary is the per-function fact: which tracked parameters escape or get
// marked, and whether the function calls MarkShared directly (making it an
// escape point in the txn.go sense).
type Summary struct {
	Params        []ParamEffect `json:"params,omitempty"`
	MarksDirectly bool          `json:"marks,omitempty"`
	// Test marks a function declared in a _test.go file; the derived
	// escape-point list (EscapePoints) is about production code and skips
	// them.
	Test bool `json:"test,omitempty"`
}

// ParamEffect describes one tracked parameter by flat index (receiver first).
type ParamEffect struct {
	Index   int  `json:"i"`
	Escapes bool `json:"e,omitempty"`
	Marks   bool `json:"m,omitempty"`
}

func (s *Summary) at(i int) ParamEffect {
	for _, p := range s.Params {
		if p.Index == i {
			return p
		}
	}
	return ParamEffect{Index: i}
}

// ownerFact marks a type annotated tebaldi:txnowner.
type ownerFact struct {
	Owner bool `json:"owner"`
}

// tracked reports whether t is *core.Txn (the pooled pointer type).
func tracked(t types.Type) bool {
	if t == nil {
		return false
	}
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	return ssa.IsNamed(p.Elem(), CorePath, "Txn")
}

// escapeEdge is one publication of a tracked value. Silent edges (handing a
// parameter to a callee that escapes it) feed summaries but produce no
// diagnostic — the callee body is where that escape is reported.
type escapeEdge struct {
	val    ssa.ValueID
	pos    token.Pos
	what   string
	silent bool
}

// funcFacts is the analysis result for one function body.
type funcFacts struct {
	flow    *ssa.Flow
	escapes []escapeEdge
	marked  map[ssa.ValueID]bool
	marks   bool // calls (*Txn).MarkShared directly
}

func run(pass *framework.Pass) error {
	decls := ssa.Decls(pass.TypesInfo, pass.Files)
	ordered := make([]*ast.FuncDecl, 0, len(decls))
	fns := map[*ast.FuncDecl]*types.Func{}
	for fn, fd := range decls {
		ordered = append(ordered, fd)
		fns[fd] = fn
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Pos() < ordered[j].Pos() })

	owners := ownerTypes(pass)
	for tn := range owners {
		pass.ExportObjectFact(tn, &ownerFact{Owner: true})
	}

	a := &analysis{pass: pass, owners: owners, summaries: map[*types.Func]*Summary{}}

	// Two summary rounds approximate a bottom-up traversal without building
	// the package-local call order: round one summarizes leaves correctly,
	// round two sees those summaries from any caller. (Deeper same-package
	// chains converge too — each round propagates one level.)
	for round := 0; round < 2; round++ {
		for _, fd := range ordered {
			a.summaries[fns[fd]] = a.summarize(fd)
		}
	}

	// Report with the final summaries in view. Test files are summarized
	// (callers elsewhere still need the facts) but not diagnosed: tests
	// construct transactions directly and own the whole lifecycle,
	// including whether PutTxn ever runs, so the reclamation rule is
	// enforced on production code only.
	for _, fd := range ordered {
		if strings.HasSuffix(pass.Fset.Position(fd.Pos()).Filename, "_test.go") {
			continue
		}
		ff := a.analyze(fd)
		for _, e := range ff.escapes {
			if e.silent || ff.marked[e.val] {
				continue
			}
			pass.Reportf(e.pos, "pooled *core.Txn %s without MarkShared; PutTxn may recycle it while still referenced (reclamation rule, internal/core/txn.go)", e.what)
		}
	}

	for fn, s := range a.summaries {
		s.Test = strings.HasSuffix(pass.Fset.Position(fn.Pos()).Filename, "_test.go")
		pass.ExportObjectFact(fn, s)
	}
	return nil
}

type analysis struct {
	pass      *framework.Pass
	owners    map[*types.TypeName]bool
	summaries map[*types.Func]*Summary
}

// summarize computes the fact for one declaration.
func (a *analysis) summarize(fd *ast.FuncDecl) *Summary {
	ff := a.analyze(fd)
	s := &Summary{MarksDirectly: ff.marks}
	for _, p := range ff.flow.TrackedParams() {
		v := ff.flow.ValueOfParam(p)
		eff := ParamEffect{Index: p.Index, Marks: ff.marked[v]}
		for _, e := range ff.escapes {
			if e.val == v {
				eff.Escapes = true
			}
		}
		if eff.Escapes || eff.Marks {
			s.Params = append(s.Params, eff)
		}
	}
	return s
}

// analyze walks one declaration, collecting escape edges and marks.
func (a *analysis) analyze(fd *ast.FuncDecl) *funcFacts {
	info := a.pass.TypesInfo
	flow := ssa.BuildFlow(info, fd.Recv, fd.Type, fd.Body, tracked)
	ff := &funcFacts{flow: flow, marked: map[ssa.ValueID]bool{}}
	if fd.Body == nil {
		return ff
	}

	esc := func(e ast.Expr, pos token.Pos, what string, silent bool) {
		if v, ok := flow.ValueOf(e); ok {
			ff.escapes = append(ff.escapes, escapeEdge{val: v, pos: pos, what: what, silent: silent})
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				break
			}
			for i, lhs := range x.Lhs {
				rhs := x.Rhs[i]
				if _, ok := flow.ValueOf(rhs); !ok {
					continue
				}
				a.storeEdge(flow, lhs, rhs, esc)
			}
		case *ast.SendStmt:
			esc(x.Value, x.Value.Pos(), "sent on a channel", false)
		case *ast.CompositeLit:
			if a.isOwnerType(info.Types[x].Type) {
				break
			}
			for _, el := range x.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				esc(v, v.Pos(), "embedded in a composite literal", false)
			}
		case *ast.GoStmt:
			a.goEdges(flow, x, esc)
		case *ast.CallExpr:
			a.callEffects(flow, ff, x, esc)
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				v, ok := flow.ValueOf(r)
				if !ok {
					continue
				}
				if flow.HasOrigin(v, ssa.OriginLoad) || flow.HasOrigin(v, ssa.OriginGlobal) {
					esc(r, r.Pos(), "returned after being loaded from a field or global", false)
				}
			}
		}
		return true
	})
	return ff
}

// storeEdge classifies an assignment of a tracked rhs by its lhs shape.
func (a *analysis) storeEdge(flow *ssa.Flow, lhs, rhs ast.Expr, esc func(ast.Expr, token.Pos, string, bool)) {
	info := a.pass.TypesInfo
	switch l := ssa.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if tv, ok := info.Types[l.X]; ok && a.isOwnerType(tv.Type) {
			return // ownership transfer into an annotated owner handle
		}
		esc(rhs, rhs.Pos(), "stored into field "+types.ExprString(l), false)
	case *ast.IndexExpr:
		esc(rhs, rhs.Pos(), "stored into element "+types.ExprString(l), false)
	case *ast.StarExpr:
		esc(rhs, rhs.Pos(), "stored through pointer "+types.ExprString(l), false)
	case *ast.Ident:
		obj := info.Uses[l]
		if obj == nil {
			obj = info.Defs[l]
		}
		if v, ok := obj.(*types.Var); ok && v.Parent() == a.pass.Pkg.Scope() {
			esc(rhs, rhs.Pos(), "stored into package-level variable "+l.Name, false)
		}
	}
}

// goEdges records goroutine hand-offs: call arguments, the receiver of a
// `go x.m()`, and tracked variables captured by a spawned literal.
func (a *analysis) goEdges(flow *ssa.Flow, g *ast.GoStmt, esc func(ast.Expr, token.Pos, string, bool)) {
	info := a.pass.TypesInfo
	call := g.Call
	for _, arg := range call.Args {
		esc(arg, g.Pos(), "passed to a goroutine", false)
	}
	switch fun := ssa.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		esc(fun.X, g.Pos(), "receiver of a goroutine method call", false)
	case *ast.FuncLit:
		local := map[types.Object]bool{}
		ast.Inspect(fun, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := info.Defs[id]; o != nil {
					local[o] = true
				}
			}
			return true
		})
		seen := map[types.Object]bool{}
		ast.Inspect(fun.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			o := info.Uses[id]
			if o == nil || local[o] || seen[o] || !tracked(o.Type()) {
				return true
			}
			seen[o] = true
			esc(id, g.Pos(), "captured by a goroutine", false)
			return true
		})
	}
}

// callEffects applies callee summaries: marks propagate, and passing a
// tracked value to a callee that escapes it without marking is a silent
// edge (the callee body carries the diagnostic). Direct MarkShared calls and
// append retention are handled here too.
func (a *analysis) callEffects(flow *ssa.Flow, ff *funcFacts, call *ast.CallExpr, esc func(ast.Expr, token.Pos, string, bool)) {
	info := a.pass.TypesInfo

	if recv, ok := markSharedRecv(info, call); ok {
		ff.marks = true
		if v, ok := flow.ValueOf(recv); ok {
			ff.marked[v] = true
		}
		return
	}

	if id, ok := ssa.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				for _, arg := range call.Args[1:] {
					esc(arg, arg.Pos(), "retained by append", false)
				}
			}
			return
		}
	}

	fn := ssa.StaticCallee(info, call)
	if fn == nil {
		return // interface dispatch / func value: not an escape edge (documented)
	}
	sum := a.summaryOf(fn)
	if sum == nil {
		return // external callee: not an escape edge (documented)
	}
	for i, arg := range flatArgs(info, fn, call) {
		v, ok := flow.ValueOf(arg)
		if !ok {
			continue
		}
		eff := sum.at(i)
		if eff.Marks {
			ff.marked[v] = true
		}
		if eff.Escapes && !eff.Marks {
			esc(arg, arg.Pos(), "passed to "+fn.FullName()+", which escapes it", true)
		}
	}
}

// summaryOf resolves a callee summary: same-package results first, then
// imported facts. nil means the callee is outside the analyzed module.
func (a *analysis) summaryOf(fn *types.Func) *Summary {
	if s, ok := a.summaries[fn]; ok {
		return s
	}
	var s Summary
	if a.pass.ImportObjectFact(fn, &s) {
		return &s
	}
	return nil
}

// flatArgs aligns call arguments with the callee's flat parameter indexing
// (receiver first for methods called through a selector).
func flatArgs(info *types.Info, fn *types.Func, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if sel, ok := ssa.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			// Method expressions ((*T).M)(x, ...) have a type as sel.X; a
			// type expression is never a tracked value, so prepending it is
			// harmless there and correct for ordinary method calls.
			out = append(out, sel.X)
		}
	}
	return append(out, call.Args...)
}

// markSharedRecv matches a direct (*core.Txn).MarkShared call, returning the
// receiver expression.
func markSharedRecv(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ssa.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "MarkShared" {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !ssa.IsNamed(sig.Recv().Type(), CorePath, "Txn") {
		return nil, false
	}
	return sel.X, true
}

// isOwnerType reports whether t (through pointers) is annotated
// tebaldi:txnowner, locally or via an imported fact.
func (a *analysis) isOwnerType(t types.Type) bool {
	n := ssa.NamedOf(t)
	if n == nil {
		return false
	}
	tn := n.Obj()
	if a.owners[tn] {
		return true
	}
	var f ownerFact
	return a.pass.ImportObjectFact(tn, &f) && f.Owner
}

// ownerTypes collects the package's tebaldi:txnowner-annotated type names.
// The directive lives in the type's doc comment (on the GenDecl or the
// TypeSpec).
func ownerTypes(pass *framework.Pass) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	hasDirective := func(groups ...*ast.CommentGroup) bool {
		for _, cg := range groups {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "tebaldi:txnowner" {
					return true
				}
			}
		}
		return false
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if hasDirective(gd.Doc, ts.Doc, ts.Comment) {
					if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
						out[tn] = true
					}
				}
			}
		}
	}
	return out
}

// EscapePoints derives the transaction escape-point list from the session's
// facts: every function whose summary marks transactions shared directly,
// excluding the MarkShared primitive itself. This is the machine-derived
// replacement for the hand-maintained list in internal/core/txn.go.
func EscapePoints(facts *framework.FactStore) []string {
	var out []string
	for _, key := range facts.Keys(Name) {
		var s Summary
		if !facts.Lookup(Name, key, &s) {
			continue
		}
		if s.MarksDirectly && !s.Test && !strings.HasSuffix(key, ".MarkShared") {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
