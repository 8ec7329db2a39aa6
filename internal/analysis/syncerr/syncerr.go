// Package syncerr implements the tebaldivet analyzer that forbids
// discarding the error result of durability-critical calls.
//
// The WAL's contract is "acked implies durable": every fsync and buffered
// flush on the commit, checkpoint and compaction paths must have its error
// observed, because a dropped error silently converts a durable commit into
// a volatile one (the exact shape of the directory-fsync bug this analyzer
// first caught on kvstore's atomic-rename commit path). Unlike the generic
// errcheck linters, the target list here is closed and curated: only calls
// whose failure breaks a durability invariant are errors.
//
// Test files are exempt: tests crash-inject, tear stores down mid-flight
// and discard teardown errors deliberately. The durability contract binds
// production code.
package syncerr

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the syncerr check.
var Analyzer = &framework.Analyzer{
	Name: "syncerr",
	Doc: "report discarded errors from durability-critical calls " +
		"(fsync, WAL flush/seal, kvstore sync/compaction)",
	Run: run,
}

// target identifies one durability-critical method by defining package path
// suffix, receiver type name, and method name.
type target struct {
	pathSuffix, typ, method string
}

var targets = []target{
	// fsync itself.
	{"os", "File", "Sync"},
	// Buffered log bytes: an unflushed writer means unreported data loss.
	{"bufio", "Writer", "Flush"},
	// kvstore durability surface (§4.5.4 storage substitute).
	{"internal/kvstore", "Store", "Sync"},
	{"internal/kvstore", "Store", "Rewrite"},
	{"internal/kvstore", "Store", "Close"},
	// WAL group-commit pipeline: flush/seal/checkpoint and the per-ticket
	// durable wait all report the first append/fsync error.
	{"internal/wal", "Manager", "Commit"},
	{"internal/wal", "Manager", "Checkpoint"},
	{"internal/wal", "Manager", "Close"},
	{"internal/wal", "Manager", "flushEpoch"},
	{"internal/wal", "Manager", "WaitDurable"},
	{"internal/wal", "Ticket", "Wait"},
}

func matches(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Pkg() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	path := fn.Pkg().Path()
	for _, t := range targets {
		if fn.Name() == t.method && named.Obj().Name() == t.typ &&
			(path == t.pathSuffix || strings.HasSuffix(path, "/"+t.pathSuffix)) {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	// calleeOf resolves a call to the durability-critical method it
	// invokes, or nil.
	calleeOf := func(call *ast.CallExpr) *types.Func {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || !matches(fn) {
			return nil
		}
		return fn
	}
	report := func(call *ast.CallExpr, fn *types.Func, how string) {
		recv := fn.Type().(*types.Signature).Recv().Type()
		pass.Reportf(call.Pos(),
			"error result of (%s).%s is %s: durability-critical calls must have their errors handled",
			types.TypeString(recv, types.RelativeTo(pass.Pkg)), fn.Name(), how)
	}
	inspect := func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if fn := calleeOf(call); fn != nil {
					report(call, fn, "discarded")
				}
			}
		case *ast.GoStmt:
			if fn := calleeOf(st.Call); fn != nil {
				report(st.Call, fn, "discarded (go statement)")
			}
		case *ast.DeferStmt:
			if fn := calleeOf(st.Call); fn != nil {
				report(st.Call, fn, "discarded (deferred)")
			}
		case *ast.AssignStmt:
			// `_ = f()` / `_, _ = f(), g()`: flag a call whose results all
			// land in blanks.
			if len(st.Rhs) == 1 && len(st.Lhs) >= 1 {
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
					if fn := calleeOf(call); fn != nil && allBlank(st.Lhs) {
						report(call, fn, "assigned to _")
					}
				}
				return true
			}
			for i, r := range st.Rhs {
				if call, ok := r.(*ast.CallExpr); ok && i < len(st.Lhs) {
					if fn := calleeOf(call); fn != nil && isBlank(st.Lhs[i]) {
						report(call, fn, "assigned to _")
					}
				}
			}
		}
		return true
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, inspect)
	}
	return nil
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if !isBlank(e) {
			return false
		}
	}
	return true
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
