// Package ackorder machine-checks the durability ack ordering invariant of
// the group-commit WAL (PR 8/9): a function that stages records through
// (*wal.Manager).Precommit must not return a nil error on a path that could
// run in synchronous mode without waiting for the flush (ticket.Wait,
// <-ticket.Done(), Manager.WaitDurable, or a helper that provably waits).
// Returning early acks a commit the log may still lose — the exact incident
// shape PR 6's tests reproduce with a crash between ack and fsync.
//
// The analyzer is value-flow based and path-sensitive over exactly the three
// facts the invariant mentions:
//
//   - staged: a Precommit call succeeded on this path;
//   - waited: a durability wait ran on this path;
//   - sync: what this path knows about Manager.Synchronous().
//
// Conditions over `ticket != nil` and `Synchronous()` split paths, including
// through && and || (`if ticket != nil && mgr.Synchronous()` refines its
// fall-through path to "async mode" when the ticket is known non-nil).
// A diagnostic is reported only at `return` statements whose error-position
// result is the literal nil while staged && !waited && possibly-sync.
//
// Helpers that encapsulate the wait are recognized interprocedurally: any
// function taking (or methodically receiving) a *wal.Ticket and waiting on
// one exports a fact, and calls to it count as waits — so `ticket.Err()`
// (which waits internally) or a repo-local waitDurable(t) helper satisfy the
// invariant. Waits inside `go` statements do not count: a concurrent wait
// does not delay the ack.
//
// Scope: the wal package itself is excluded (it implements the mechanism),
// and _test.go functions are not diagnosed (tests stage and ack freely).
package ackorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/ssa"
)

// Name is the analyzer's registered name.
const Name = "ackorder"

// WalPath is the package that owns Manager and Ticket.
const WalPath = "repro/internal/wal"

var Analyzer = &framework.Analyzer{
	Name: Name,
	Doc: "flag commit paths that return nil after staging WAL records without a " +
		"durability wait reachable in synchronous mode (ack-before-fsync)",
	Run: run,
}

// WaitFact marks a function that takes a *wal.Ticket (parameter or receiver)
// and performs a durability wait on one; calling it counts as waiting.
type WaitFact struct {
	Waits bool `json:"waits"`
}

// maxPaths bounds the path enumeration per function; beyond it the analyzer
// stays silent rather than slow.
const maxPaths = 4096

func run(pass *framework.Pass) error {
	decls := ssa.Decls(pass.TypesInfo, pass.Files)

	// Local wait-helper set, exported as facts for cross-package callers.
	waiters := map[*types.Func]bool{}
	for fn, fd := range decls {
		if hasTicketParam(fn) && bodyWaits(pass.TypesInfo, fd.Body) {
			waiters[fn] = true
			pass.ExportObjectFact(fn, &WaitFact{Waits: true})
		}
	}

	if pass.Pkg.Path() == WalPath {
		return nil // the mechanism itself is out of scope
	}

	for fn, fd := range decls {
		if !callsPrecommit(pass.TypesInfo, fd.Body) {
			continue
		}
		if strings.HasSuffix(pass.Fset.Position(fd.Pos()).Filename, "_test.go") {
			continue
		}
		w := &walker{pass: pass, waiters: waiters, errIdx: errResultIndex(fn), reported: map[token.Pos]bool{}}
		if w.errIdx < 0 {
			continue // no error result: nothing to ack wrongly
		}
		w.walkStmts(fd.Body.List, state{})
	}
	return nil
}

// tri is three-valued path knowledge.
type tri int

const (
	unknown tri = iota
	yes
	no
)

func (t tri) invert() tri {
	switch t {
	case yes:
		return no
	case no:
		return yes
	}
	return unknown
}

// state is what one path knows at a program point.
type state struct {
	staged bool
	waited bool
	ticket tri // is the staged ticket non-nil?
	sync   tri // is the manager in synchronous mode?
}

type walker struct {
	pass     *framework.Pass
	waiters  map[*types.Func]bool
	errIdx   int
	paths    int
	reported map[token.Pos]bool
}

// walkStmts explores stmts under st, forking at branches.
func (w *walker) walkStmts(stmts []ast.Stmt, st state) {
	w.paths++
	if w.paths > maxPaths {
		return
	}
	for i := 0; i < len(stmts); i++ {
		switch x := stmts[i].(type) {
		case *ast.IfStmt:
			if x.Init != nil {
				st = w.effects(x.Init, st)
			}
			rest := stmts[i+1:]
			if thenSt, ok := w.assume(st, x.Cond, true); ok {
				w.walkStmts(concat(x.Body.List, rest), thenSt)
			}
			if elseSt, ok := w.assume(st, x.Cond, false); ok {
				switch e := x.Else.(type) {
				case nil:
					w.walkStmts(rest, elseSt)
				case *ast.BlockStmt:
					w.walkStmts(concat(e.List, rest), elseSt)
				default: // else-if chain
					w.walkStmts(concat([]ast.Stmt{e}, rest), elseSt)
				}
			}
			return
		case *ast.ReturnStmt:
			w.checkReturn(x, st)
			return
		case *ast.BlockStmt:
			w.walkStmts(concat(x.List, stmts[i+1:]), st)
			return
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			rest := stmts[i+1:]
			bodies, exhaustive := clauseBodies(x)
			for _, body := range bodies {
				w.walkStmts(concat(body, rest), st)
			}
			if !exhaustive {
				w.walkStmts(rest, st) // no clause matched (switch without default)
			}
			return
		case *ast.ForStmt:
			st = w.loopEffects(x.Body, st)
		case *ast.RangeStmt:
			st = w.loopEffects(x.Body, st)
		case *ast.BranchStmt:
			return // break/continue/goto: this linear path ends here
		default:
			st = w.effects(stmts[i], st)
		}
	}
}

// effects applies the state changes of one non-branching statement.
func (w *walker) effects(s ast.Stmt, st state) state {
	walkSameFunc(s, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false // a concurrent wait does not delay the ack
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 {
				if call, ok := ssa.Unparen(x.Rhs[0]).(*ast.CallExpr); ok && isStageCall(w.pass.TypesInfo, call) {
					st.staged = true
					st.ticket = yes
				}
			}
		case *ast.CallExpr:
			if w.isWait(x) {
				st.waited = true
			}
		}
		return true
	})
	return st
}

// loopEffects applies a loop body's effects flow-insensitively and checks
// any returns inside it with the pre-loop state (inner atom conditions are
// not split — worker loops do not gate the durability wait in practice).
func (w *walker) loopEffects(body *ast.BlockStmt, st state) state {
	st = w.effects(body, st)
	walkSameFunc(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			w.checkReturn(r, st)
		}
		return true
	})
	return st
}

// checkReturn flags a nil error result returned while staged, unwaited, and
// possibly synchronous.
func (w *walker) checkReturn(r *ast.ReturnStmt, st state) {
	if !st.staged || st.waited || st.sync == no {
		return
	}
	if w.errIdx >= len(r.Results) {
		return // naked return or result-spread call: not a literal nil ack
	}
	res := r.Results[w.errIdx]
	if tv, ok := w.pass.TypesInfo.Types[res]; !ok || !tv.IsNil() {
		return
	}
	if w.reported[r.Pos()] {
		return
	}
	w.reported[r.Pos()] = true
	w.pass.Reportf(r.Pos(), "returns nil after staging WAL records without a durability wait reachable in sync mode (ticket.Wait / <-ticket.Done() / Manager.WaitDurable): the commit may be acked before its flush")
}

// assume refines st with cond == val, reporting false when the path is
// infeasible under what st already knows.
func (w *walker) assume(st state, cond ast.Expr, val bool) (state, bool) {
	cond = ssa.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return w.assume(st, c.X, !val)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if val {
				st1, ok := w.assume(st, c.X, true)
				if !ok {
					return st, false
				}
				return w.assume(st1, c.Y, true)
			}
			// ¬(A && B): decidable only when one side is already known.
			if w.known(st, c.X) == yes {
				return w.assume(st, c.Y, false)
			}
			if w.known(st, c.Y) == yes {
				return w.assume(st, c.X, false)
			}
			return st, true
		case token.LOR:
			if !val {
				st1, ok := w.assume(st, c.X, false)
				if !ok {
					return st, false
				}
				return w.assume(st1, c.Y, false)
			}
			if w.known(st, c.X) == no {
				return w.assume(st, c.Y, true)
			}
			if w.known(st, c.Y) == no {
				return w.assume(st, c.X, true)
			}
			return st, true
		}
	}
	if nonNil, ok := w.ticketNilCheck(cond); ok {
		want := yes
		if nonNil != val {
			want = no
		}
		if st.ticket != unknown && st.ticket != want {
			return st, false
		}
		st.ticket = want
		return st, true
	}
	if w.isSyncCall(cond) {
		want := yes
		if !val {
			want = no
		}
		if st.sync != unknown && st.sync != want {
			return st, false
		}
		st.sync = want
		return st, true
	}
	return st, true
}

// known evaluates cond against st without refining it.
func (w *walker) known(st state, cond ast.Expr) tri {
	cond = ssa.Unparen(cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		return w.known(st, u.X).invert()
	}
	if nonNil, ok := w.ticketNilCheck(cond); ok {
		if nonNil {
			return st.ticket
		}
		return st.ticket.invert()
	}
	if w.isSyncCall(cond) {
		return st.sync
	}
	return unknown
}

// ticketNilCheck matches `t != nil` / `t == nil` for a *wal.Ticket t,
// returning whether the comparison asserts non-nil.
func (w *walker) ticketNilCheck(cond ast.Expr) (nonNil, ok bool) {
	b, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (b.Op != token.EQL && b.Op != token.NEQ) {
		return false, false
	}
	info := w.pass.TypesInfo
	var operand ast.Expr
	switch {
	case isNilExpr(info, b.Y):
		operand = b.X
	case isNilExpr(info, b.X):
		operand = b.Y
	default:
		return false, false
	}
	tv, okT := info.Types[operand]
	if !okT || !ssa.IsNamed(tv.Type, WalPath, "Ticket") {
		return false, false
	}
	return b.Op == token.NEQ, true
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ssa.Unparen(e)]
	return ok && tv.IsNil()
}

// isSyncCall matches a (*wal.Manager).Synchronous() call.
func (w *walker) isSyncCall(cond ast.Expr) bool {
	call, ok := ssa.Unparen(cond).(*ast.CallExpr)
	return ok && isManagerCall(w.pass.TypesInfo, call, "Synchronous")
}

// isWait recognizes every accepted durability wait: ticket.Wait(),
// Manager.WaitDurable(...), and calls to exported wait-helper facts. The
// <-ticket.Done() form reduces to the Done() call this matches.
func (w *walker) isWait(call *ast.CallExpr) bool {
	info := w.pass.TypesInfo
	if isTicketCall(info, call, "Wait") || isTicketCall(info, call, "Done") || isTicketCall(info, call, "Err") {
		return true
	}
	if isManagerCall(info, call, "WaitDurable") {
		return true
	}
	fn := ssa.StaticCallee(info, call)
	if fn == nil {
		return false
	}
	if w.waiters[fn] {
		return true
	}
	var f WaitFact
	return w.pass.ImportObjectFact(fn, &f) && f.Waits
}

// isManagerCall / isTicketCall match a method call by receiver type and name.
func isManagerCall(info *types.Info, call *ast.CallExpr, name string) bool {
	return isMethodCall(info, call, "Manager", name)
}

func isTicketCall(info *types.Info, call *ast.CallExpr, name string) bool {
	return isMethodCall(info, call, "Ticket", name)
}

func isMethodCall(info *types.Info, call *ast.CallExpr, typeName, name string) bool {
	sel, ok := ssa.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return ssa.IsNamed(sig.Recv().Type(), WalPath, typeName)
}

// isStageCall matches the Manager methods that stage precommit records:
// Precommit and its slice form PrecommitShards.
func isStageCall(info *types.Info, call *ast.CallExpr) bool {
	return isManagerCall(info, call, "Precommit") || isManagerCall(info, call, "PrecommitShards")
}

// callsPrecommit reports whether body stages records itself.
func callsPrecommit(info *types.Info, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	walkSameFunc(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isStageCall(info, call) {
			found = true
		}
		return true
	})
	return found
}

// hasTicketParam reports whether fn takes a *wal.Ticket (receiver counts).
func hasTicketParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if r := sig.Recv(); r != nil && ssa.IsNamed(r.Type(), WalPath, "Ticket") {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if ssa.IsNamed(sig.Params().At(i).Type(), WalPath, "Ticket") {
			return true
		}
	}
	return false
}

// bodyWaits reports whether body performs a direct durability wait.
func bodyWaits(info *types.Info, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	walkSameFunc(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isTicketCall(info, call, "Wait") || isTicketCall(info, call, "Done") ||
			isManagerCall(info, call, "WaitDurable") {
			found = true
		}
		return true
	})
	return found
}

// errResultIndex returns the index of the trailing error result, or -1.
func errResultIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return -1
	}
	last := sig.Results().Len() - 1
	if named, ok := sig.Results().At(last).Type().(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return last
	}
	return -1
}

// clauseBodies returns the clause bodies of a switch/type-switch/select and
// whether the statement always enters some clause (select always blocks for
// a comm; a switch is exhaustive only with a default clause).
func clauseBodies(s ast.Stmt) ([][]ast.Stmt, bool) {
	var out [][]ast.Stmt
	hasDefault := false
	add := func(list []ast.Stmt) {
		for _, cl := range list {
			switch c := cl.(type) {
			case *ast.CaseClause:
				if c.List == nil {
					hasDefault = true
				}
				out = append(out, c.Body)
			case *ast.CommClause:
				// The comm statement (e.g. `<-ticket.Done()`) carries
				// effects of its own; run it ahead of the clause body.
				if c.Comm != nil {
					out = append(out, concat([]ast.Stmt{c.Comm}, c.Body))
				} else {
					out = append(out, c.Body)
				}
			}
		}
	}
	switch x := s.(type) {
	case *ast.SwitchStmt:
		add(x.Body.List)
		return out, hasDefault
	case *ast.TypeSwitchStmt:
		add(x.Body.List)
		return out, hasDefault
	case *ast.SelectStmt:
		add(x.Body.List)
		return out, true
	}
	return out, false
}

func concat(a, b []ast.Stmt) []ast.Stmt {
	out := make([]ast.Stmt, 0, len(a)+len(b))
	return append(append(out, a...), b...)
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
