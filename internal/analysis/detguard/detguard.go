// Package detguard implements the tebaldivet analyzer that keeps the
// deterministic schedule drivers deterministic.
//
// The anomaly suite's value is replayability: a failing interleaving must
// fail identically on every run, or the suite degrades into the flake
// hunts that cost PR 2 and PR 6 (see DESIGN.md, "Determination
// Provenance"). Packages that opt in with a `tebaldi:deterministic`
// comment may not read wall-clock time (time.Now/Since/Until), draw from
// the global math/rand source, or let map iteration order decide a result.
//
// Map-order dependence is detected by two heuristics: a return or break
// inside a map range (the "first" element of an unordered map wins), and
// appending range keys/values to a slice that is never sorted in the same
// function.
package detguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/lockset"
)

// Analyzer is the detguard check.
var Analyzer = &framework.Analyzer{
	Name: "detguard",
	Doc: "report nondeterminism (wall clock, global rand, map-order " +
		"dependence) in packages marked tebaldi:deterministic",
	Run: run,
}

// timeFns are the wall-clock reads; watchdog timers (After, Sleep, Timer)
// stay legal because they bound waiting without steering results.
var timeFns = map[string]bool{"Now": true, "Since": true, "Until": true}

// randFns are the package-level draws from the global math/rand source
// (v1 and v2 names). Seeded private sources via rand.New are legal.
var randFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Uint32": true, "Uint64": true, "Float32": true,
	"Float64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"ExpFloat64": true, "NormFloat64": true, "N": true, "IntN": true,
	"Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

func run(pass *framework.Pass) error {
	if !framework.HasDirective(pass.Files, "deterministic") {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if timeFns[fn.Name()] {
				pass.Reportf(call.Pos(),
					"time.%s in a deterministic package: wall-clock reads make schedules unreplayable",
					fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if randFns[fn.Name()] {
				pass.Reportf(call.Pos(),
					"%s.%s uses the global rand source in a deterministic package: use a seeded rand.New source",
					fn.Pkg().Name(), fn.Name())
			}
		}
		return true
	})

	// Map-order heuristics need function scope (for the sorted-later
	// check).
	for _, file := range pass.Files {
		for _, fn := range lockset.FunctionsOf(file) {
			checkMapOrder(pass, fn.Body)
		}
	}
	return nil
}

// checkMapOrder flags order-dependent map ranges in one function body.
// Nested function literals are handled by their own FunctionsOf entry.
func checkMapOrder(pass *framework.Pass, body *ast.BlockStmt) {
	sorted := sortedSlices(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if exits(rng.Body) {
			pass.Reportf(rng.Pos(),
				"return/break inside a map range: iteration order decides which element wins; iterate a sorted key slice")
		}
		for _, app := range orderedAppends(pass, rng) {
			if !sorted[app.slice] {
				pass.Reportf(app.pos,
					"map range appends %s in iteration order and %s is never sorted in this function; sort it or iterate sorted keys",
					app.slice.Name(), app.slice.Name())
			}
		}
		return true
	})
}

// exits reports whether the range body contains a return, or a break that
// targets the map range itself (not an inner loop/switch/select). Function
// literals are opaque: a return inside one does not exit this function.
func exits(body *ast.BlockStmt) bool {
	return stmtExits(body, true)
}

func stmtExits(s ast.Stmt, breakHere bool) bool {
	switch st := s.(type) {
	case nil:
		return false
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return st.Tok == token.BREAK && st.Label == nil && breakHere
	case *ast.BlockStmt:
		for _, x := range st.List {
			if stmtExits(x, breakHere) {
				return true
			}
		}
	case *ast.IfStmt:
		return stmtExits(st.Body, breakHere) || stmtExits(st.Else, breakHere)
	case *ast.LabeledStmt:
		return stmtExits(st.Stmt, breakHere)
	case *ast.ForStmt:
		return stmtExits(st.Body, false)
	case *ast.RangeStmt:
		return stmtExits(st.Body, false)
	case *ast.SwitchStmt:
		return stmtExits(st.Body, false)
	case *ast.TypeSwitchStmt:
		return stmtExits(st.Body, false)
	case *ast.SelectStmt:
		return stmtExits(st.Body, false)
	case *ast.CaseClause:
		for _, x := range st.Body {
			if stmtExits(x, breakHere) {
				return true
			}
		}
	case *ast.CommClause:
		for _, x := range st.Body {
			if stmtExits(x, breakHere) {
				return true
			}
		}
	}
	return false
}

type orderedAppend struct {
	slice *types.Var
	pos   token.Pos
}

// orderedAppends finds `s = append(s, ...)` inside the range body where the
// appended value derives from the range's key or value variable.
func orderedAppends(pass *framework.Pass, rng *ast.RangeStmt) []orderedAppend {
	iterObjs := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				iterObjs[obj] = true
			}
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				iterObjs[obj] = true
			}
		}
	}
	if len(iterObjs) == 0 {
		return nil
	}
	var out []orderedAppend
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return true
		}
		lhs, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		v, ok := pass.TypesInfo.Uses[lhs].(*types.Var)
		if !ok {
			return true
		}
		usesIter := false
		for _, arg := range call.Args[1:] {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && iterObjs[pass.TypesInfo.Uses[id]] {
					usesIter = true
				}
				return !usesIter
			})
		}
		if usesIter {
			out = append(out, orderedAppend{slice: v, pos: asg.Pos()})
		}
		return true
	})
	return out
}

// sortedSlices returns the slice variables that are passed to a sort or
// slices call anywhere in the function.
func sortedSlices(pass *framework.Pass, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						out[v] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}
