// Package goroleak checks that every spawned goroutine has a provable
// termination condition. The PR-6/PR-8 incident class it targets: a worker
// loop with no shutdown signal keeps the engine (or a test binary) alive,
// holds transactions pinned past Close, and turns -race runs flaky.
//
// A goroutine terminates provably when the function it runs has no infinite
// loop, or when each of its infinite loops (`for {}` / `for true {}`) has a
// channel-signaled exit:
//
//   - a select case whose comm is a channel receive and whose body returns
//     (or breaks out of the loop by label) — the done/stop-channel idiom;
//   - a comma-ok channel receive (`v, ok := <-ch`) combined with a loop
//     exit — the closable work-queue idiom;
//   - `for range ch` loops need nothing: they end when the channel closes.
//
// Goroutines whose shutdown is managed by a mechanism the analyzer cannot
// see (process exit, connection close from the peer, an exhausted work list)
// must be annotated at the `go` statement or on the spawned function's doc
// comment:
//
//	// tebaldi:worker <who shuts it down and how>
//
// The description is mandatory — the annotation is documentation of the
// shutdown path, not a mute button.
//
// The check is interprocedural one level deep: `go pkg.F(...)` consults F's
// exported fact. Calls that cannot be resolved statically (func values,
// interface methods) and functions whose body merely calls another looping
// function are assumed terminating — documented approximations.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/ssa"
)

// Name is the analyzer's registered name.
const Name = "goroleak"

var Analyzer = &framework.Analyzer{
	Name: Name,
	Doc: "flag go statements spawning functions with infinite loops that have no " +
		"channel-signaled exit and no tebaldi:worker annotation",
	Run: run,
}

// Fact marks a function whose body contains an unguarded infinite loop.
// Functions without the fact — including all functions outside the module —
// are assumed to terminate.
type Fact struct {
	Unsafe bool `json:"unsafe"`
}

func run(pass *framework.Pass) error {
	decls := ssa.Decls(pass.TypesInfo, pass.Files)
	workers := workerAnnotations(pass.Fset, pass.Files)

	// Per-declaration verdicts, exported as facts for cross-package spawns.
	// A doc-annotated function is managed: it is not unsafe and gets no
	// fact, so cross-package spawns trust the annotation the same way local
	// ones do.
	unsafe := map[*types.Func]bool{}
	for fn, fd := range decls {
		if len(unguardedLoops(fd.Body)) > 0 && !docAnnotated(fd, workers, pass.Fset) {
			unsafe[fn] = true
			pass.ExportObjectFact(fn, &Fact{Unsafe: true})
		}
	}

	pass.Inspect(func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if annotated(pass.Fset, workers, g.Pos()) {
			return true
		}
		switch fun := ssa.Unparen(g.Call.Fun).(type) {
		case *ast.FuncLit:
			for _, loop := range unguardedLoops(fun.Body) {
				pass.Reportf(loop.Pos(), "goroutine runs an infinite loop with no channel-signaled exit (no done/stop select, comma-ok receive, or range over a channel); annotate `// tebaldi:worker <shutdown path>` if shutdown is managed elsewhere")
			}
		default:
			fn := ssa.StaticCallee(pass.TypesInfo, g.Call)
			if fn == nil {
				return true // func value / interface dispatch: assumed terminating
			}
			var f Fact
			if unsafe[fn] || pass.ImportObjectFact(fn, &f) && f.Unsafe {
				pass.Reportf(g.Pos(), "goroutine %s runs an infinite loop with no channel-signaled exit; annotate `// tebaldi:worker <shutdown path>` at the go statement or on the function if shutdown is managed elsewhere", fn.FullName())
			}
		}
		return true
	})
	return nil
}

// unguardedLoops returns the infinite for-loops of body that have no
// channel-signaled exit. Nested function literals are their own goroutine
// concern and are not descended into.
func unguardedLoops(body *ast.BlockStmt) []*ast.ForStmt {
	if body == nil {
		return nil
	}
	labels := map[*ast.ForStmt]string{}
	walkSameFunc(body, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok {
			if loop, ok := ls.Stmt.(*ast.ForStmt); ok {
				labels[loop] = ls.Label.Name
			}
		}
		return true
	})
	var out []*ast.ForStmt
	walkSameFunc(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || !infinite(loop) {
			return true
		}
		if !guarded(loop, labels[loop]) {
			out = append(out, loop)
		}
		return true
	})
	return out
}

// infinite reports a `for {}` or `for true {}` loop.
func infinite(loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return true
	}
	id, ok := ssa.Unparen(loop.Cond).(*ast.Ident)
	return ok && id.Name == "true"
}

// guarded reports whether loop (labeled `label`, or "") has a
// channel-signaled exit.
func guarded(loop *ast.ForStmt, label string) bool {
	signalSelect := false
	commaOkReceive := false
	walkSameFunc(loop.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectStmt:
			for _, cc := range x.Body.List {
				clause := cc.(*ast.CommClause)
				if isReceive(clause.Comm) && exitsLoop(clause.Body, label) {
					signalSelect = true
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == 2 && len(x.Rhs) == 1 {
				if u, ok := ssa.Unparen(x.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					commaOkReceive = true
				}
			}
		}
		return true
	})
	if signalSelect {
		return true
	}
	return commaOkReceive && exitsLoop(loop.Body.List, label)
}

// isReceive matches the comm statement of a select case receiving from a
// channel, with or without assignment.
func isReceive(comm ast.Stmt) bool {
	switch c := comm.(type) {
	case *ast.ExprStmt:
		u, ok := ssa.Unparen(c.X).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(c.Rhs) != 1 {
			return false
		}
		u, ok := ssa.Unparen(c.Rhs[0]).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	}
	return false
}

// exitsLoop reports whether stmts contain a return, or a break that targets
// the loop labeled `label` ("" = any unlabeled break at loop depth — but
// since unlabeled breaks inside select/switch/inner-for target those
// constructs, only returns and labeled breaks count as exits from within a
// select case).
func exitsLoop(stmts []ast.Stmt, label string) bool {
	found := false
	for _, s := range stmts {
		walkSameFunc(s, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ReturnStmt:
				found = true
			case *ast.BranchStmt:
				if x.Tok == token.BREAK && x.Label != nil && label != "" && x.Label.Name == label {
					found = true
				}
			}
			return true
		})
	}
	return found
}

// walkSameFunc is ast.Inspect that does not descend into nested function
// literals.
func walkSameFunc(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}

// workerAnnotations indexes `// tebaldi:worker <desc>` comments by file and
// line. Annotations without a description are invalid and ignored.
func workerAnnotations(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "tebaldi:worker") {
					continue
				}
				desc := strings.TrimSpace(strings.TrimPrefix(text, "tebaldi:worker"))
				if desc == "" {
					continue // the shutdown path description is mandatory
				}
				p := fset.Position(c.Pos())
				m := out[p.Filename]
				if m == nil {
					m = map[int]bool{}
					out[p.Filename] = m
				}
				m[p.Line] = true
			}
		}
	}
	return out
}

// annotated reports a worker annotation on pos's line or the line above.
func annotated(fset *token.FileSet, workers map[string]map[int]bool, pos token.Pos) bool {
	p := fset.Position(pos)
	m := workers[p.Filename]
	return m != nil && (m[p.Line] || m[p.Line-1])
}

// docAnnotated reports a worker annotation in the declaration's doc comment
// or on the line above the declaration.
func docAnnotated(fd *ast.FuncDecl, workers map[string]map[int]bool, fset *token.FileSet) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, "tebaldi:worker") &&
				strings.TrimSpace(strings.TrimPrefix(text, "tebaldi:worker")) != "" {
				return true
			}
		}
	}
	return annotated(fset, workers, fd.Pos())
}
