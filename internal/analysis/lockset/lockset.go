// Package lockset provides the shared machinery of the tebaldivet lock
// analyzers: classifying Lock/Unlock-shaped calls into lock *classes*
// (pkg.Type.field identities), and a path-sensitive abstract interpreter
// over function bodies that tracks the set of locks held on every control
// path. unlockpath and lockorder are thin clients of the Walk hooks.
package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/ssa"
)

// Op is the kind of lock operation a call performs.
type Op int

const (
	// AcquireOp blocks until the lock is held (Lock, RLock).
	AcquireOp Op = iota
	// TryAcquireOp acquires without blocking (TryLock, TryRLock).
	TryAcquireOp
	// ReleaseOp releases (Unlock, RUnlock).
	ReleaseOp
)

// Call is one classified lock operation.
type Call struct {
	Op   Op
	Read bool // RLock / RUnlock / TryRLock
	// Key identifies the lock instance syntactically (source text of the
	// receiver, e.g. "s.mu"). Two operations on the same Key in one
	// function are assumed to address the same lock.
	Key string
	// Class identifies the lock across functions and instances:
	// "pkg.Type.field" for a mutex field, "pkg.Type" for a type with its
	// own Lock/Unlock methods (e.g. core.Chain).
	Class string
	Expr  *ast.CallExpr
}

var opNames = map[string]struct {
	op   Op
	read bool
}{
	"Lock":     {AcquireOp, false},
	"RLock":    {AcquireOp, true},
	"TryLock":  {TryAcquireOp, false},
	"TryRLock": {TryAcquireOp, true},
	"Unlock":   {ReleaseOp, false},
	"RUnlock":  {ReleaseOp, true},
}

// counterpart the method that must exist on the receiver for the call to be
// considered lock-like (filters out unrelated Lock methods).
var counterpart = map[string]string{
	"Lock": "Unlock", "RLock": "RUnlock", "TryLock": "Unlock",
	"TryRLock": "RUnlock", "Unlock": "Lock", "RUnlock": "RLock",
}

// Classify reports whether call is a lock operation, and if so describes it.
func Classify(info *types.Info, call *ast.CallExpr) (*Call, bool) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	name := fun.Sel.Name
	spec, ok := opNames[name]
	if !ok {
		return nil, false
	}
	obj, ok := info.Uses[fun.Sel].(*types.Func)
	if !ok {
		return nil, false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	if sig.Params().Len() != 0 || (sig.Results().Len() != 0 && spec.op != TryAcquireOp) {
		return nil, false
	}
	// Lock-like: the receiver type must also carry the counterpart method.
	recvT := sig.Recv().Type()
	if !hasMethod(recvT, counterpart[name]) {
		return nil, false
	}
	recv := unwrap(fun.X)
	class, ok := classOf(info, recv)
	if !ok {
		return nil, false
	}
	return &Call{
		Op:    spec.op,
		Read:  spec.read,
		Key:   types.ExprString(recv),
		Class: class,
		Expr:  call,
	}, true
}

func hasMethod(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	// Interface receivers (sync.Locker) carry methods directly.
	ms = types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				e = x.X
			} else {
				return e
			}
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

// classOf derives the cross-function lock identity of receiver expression e.
func classOf(info *types.Info, e ast.Expr) (string, bool) {
	// Mutex stored in a struct field: identify by owner type + field.
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if named := ssa.NamedOf(s.Recv()); named != nil {
				return typeName(named) + "." + s.Obj().Name(), true
			}
		}
	}
	// A bare sync.Mutex/RWMutex variable: identify by the variable name
	// (pkg.varName), so two distinct driver mutexes are not conflated into
	// one "sync.Mutex" class.
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() {
			if named := ssa.NamedOf(v.Type()); named != nil &&
				named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
				if v.Pkg() != nil {
					return v.Pkg().Name() + "." + v.Name(), true
				}
			}
		}
	}
	// A type that is itself the lock (own Lock/Unlock methods), or a bare
	// mutex variable: identify by its named type.
	if tv, ok := info.Types[e]; ok {
		if named := ssa.NamedOf(tv.Type); named != nil {
			return typeName(named), true
		}
	}
	return "", false
}

func typeName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// Held is one lock held on the current path.
type Held struct {
	Call *Call
	// Deferred marks that a deferred release for this instance is pending,
	// so the lock is released on every exit from here on.
	Deferred bool
}

// ExitKind says how a path leaves the function.
type ExitKind int

const (
	// ExitReturn is an explicit return statement.
	ExitReturn ExitKind = iota
	// ExitPanic is an explicit panic(...) call.
	ExitPanic
	// ExitEnd is falling off the end of the body.
	ExitEnd
)

// Hooks are the Walk client callbacks. Each is invoked once per (event,
// path-state); nil hooks are skipped.
type Hooks struct {
	OnAcquire func(c *Call, held []Held)
	OnExit    func(pos token.Pos, kind ExitKind, held []Held)
	OnCall    func(call *ast.CallExpr, held []Held)
}

// state is the lock state of one control path.
type state struct {
	held     []Held
	deferred map[string]bool // instance keys with a pending deferred release
}

func (s state) clone() state {
	n := state{held: append([]Held(nil), s.held...)}
	if s.deferred != nil {
		n.deferred = make(map[string]bool, len(s.deferred))
		for k, v := range s.deferred {
			n.deferred[k] = v
		}
	}
	return n
}

func (s state) canon() string {
	var b strings.Builder
	for _, h := range s.held {
		b.WriteString(h.Call.Key)
		if h.Call.Read {
			b.WriteByte('r')
		}
		if h.Deferred {
			b.WriteByte('d')
		}
		b.WriteByte(';')
	}
	b.WriteByte('|')
	keys := make([]string, 0, len(s.deferred))
	for k := range s.deferred {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString(strings.Join(keys, ";"))
	return b.String()
}

// maxStates bounds path explosion; beyond it, states are merged by dedup
// only (analysis stays sound enough for lint purposes).
const maxStates = 64

func dedup(states []state) []state {
	if len(states) <= 1 {
		return states
	}
	seen := map[string]bool{}
	out := states[:0]
	for _, s := range states {
		c := s.canon()
		if !seen[c] {
			seen[c] = true
			out = append(out, s)
		}
	}
	if len(out) > maxStates {
		out = out[:maxStates]
	}
	return out
}

type loopCtx struct {
	breaks    []state
	continues []state
	isLoop    bool // false for switch/select (break falls through, no continue)
}

type walker struct {
	info  *types.Info
	hooks Hooks
	loops []*loopCtx
}

// Walk abstract-interprets body, firing hooks. Function literals inside the
// body are NOT descended into (analyze them separately), except deferred
// literals, whose release calls are honored.
func Walk(info *types.Info, body *ast.BlockStmt, hooks Hooks) {
	if body == nil {
		return
	}
	w := &walker{info: info, hooks: hooks}
	out := w.stmt(body, []state{{}})
	for _, s := range out {
		if hooks.OnExit != nil {
			hooks.OnExit(body.Rbrace, ExitEnd, s.held)
		}
	}
}

func (w *walker) stmt(s ast.Stmt, in []state) []state {
	if len(in) == 0 || s == nil {
		return in
	}
	switch st := s.(type) {
	case *ast.BlockStmt:
		cur := in
		for _, s2 := range st.List {
			cur = w.stmt(s2, cur)
		}
		return cur
	case *ast.ExprStmt:
		return w.expr(st.X, in)
	case *ast.IfStmt:
		cur := w.stmt(st.Init, in)
		// `if mu.TryLock()` / `if !mu.TryLock()`: only the success branch
		// holds the lock.
		if c, negated, ok := w.tryCond(st.Cond); ok {
			acquired := w.applyLock(c, cloneAll(cur))
			thenIn, elseIn := acquired, cur
			if negated {
				thenIn, elseIn = cur, acquired
			}
			thenOut := w.stmt(st.Body, cloneAll(thenIn))
			var elseOut []state
			if st.Else != nil {
				elseOut = w.stmt(st.Else, cloneAll(elseIn))
			} else {
				elseOut = elseIn
			}
			return dedup(append(thenOut, elseOut...))
		}
		cur = w.expr(st.Cond, cur)
		thenOut := w.stmt(st.Body, cloneAll(cur))
		var elseOut []state
		if st.Else != nil {
			elseOut = w.stmt(st.Else, cloneAll(cur))
		} else {
			elseOut = cur
		}
		return dedup(append(thenOut, elseOut...))
	case *ast.ForStmt:
		cur := w.stmt(st.Init, in)
		return w.loop(cur, st.Cond == nil, func(states []state) []state {
			states = w.expr(st.Cond, states)
			states = w.stmt(st.Body, states)
			return w.stmt(st.Post, states)
		})
	case *ast.RangeStmt:
		cur := w.expr(st.X, in)
		return w.loop(cur, false, func(states []state) []state {
			return w.stmt(st.Body, states)
		})
	case *ast.SwitchStmt:
		cur := w.stmt(st.Init, in)
		cur = w.expr(st.Tag, cur)
		return w.cases(cur, st.Body, false)
	case *ast.TypeSwitchStmt:
		cur := w.stmt(st.Init, in)
		cur = w.stmt(st.Assign, cur)
		return w.cases(cur, st.Body, false)
	case *ast.SelectStmt:
		return w.cases(in, st.Body, true)
	case *ast.ReturnStmt:
		cur := in
		for _, r := range st.Results {
			cur = w.expr(r, cur)
		}
		for _, s2 := range cur {
			if w.hooks.OnExit != nil {
				w.hooks.OnExit(st.Return, ExitReturn, s2.held)
			}
		}
		return nil
	case *ast.BranchStmt:
		return w.branch(st, in)
	case *ast.DeferStmt:
		return w.deferStmt(st, in)
	case *ast.GoStmt:
		// The goroutine body runs concurrently; its lock behavior is
		// analyzed when the literal itself is visited. Arguments are
		// evaluated here.
		cur := in
		for _, a := range st.Call.Args {
			cur = w.expr(a, cur)
		}
		return cur
	case *ast.AssignStmt:
		cur := in
		for _, r := range st.Rhs {
			cur = w.expr(r, cur)
		}
		for _, l := range st.Lhs {
			cur = w.expr(l, cur)
		}
		return cur
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			cur := in
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						cur = w.expr(v, cur)
					}
				}
			}
			return cur
		}
		return in
	case *ast.IncDecStmt:
		return w.expr(st.X, in)
	case *ast.SendStmt:
		return w.expr(st.Value, w.expr(st.Chan, in))
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, in)
	case *ast.EmptyStmt:
		return in
	default:
		return in
	}
}

// loop runs body from the entry states to a bounded fixpoint. infinite
// marks `for {}` loops that exit only via break/return.
func (w *walker) loop(entry []state, infinite bool, body func([]state) []state) []state {
	ctx := &loopCtx{isLoop: true}
	w.loops = append(w.loops, ctx)
	defer func() { w.loops = w.loops[:len(w.loops)-1] }()

	seen := map[string]bool{}
	for _, s := range entry {
		seen[s.canon()] = true
	}
	cur := cloneAll(entry)
	var after []state
	for round := 0; round < 4; round++ {
		out := body(cur)
		out = append(out, ctx.continues...)
		ctx.continues = nil
		out = dedup(out)
		after = append(after, out...)
		fresh := false
		for _, s := range out {
			if c := s.canon(); !seen[c] {
				seen[c] = true
				fresh = true
			}
		}
		if !fresh {
			break
		}
		cur = cloneAll(out)
	}
	var result []state
	if !infinite {
		result = append(result, entry...) // zero iterations
		result = append(result, after...) // n iterations, condition false
	}
	result = append(result, ctx.breaks...)
	return dedup(result)
}

// cases handles switch/select bodies. exactlyOne marks select (one case
// always runs).
func (w *walker) cases(entry []state, body *ast.BlockStmt, exactlyOne bool) []state {
	ctx := &loopCtx{isLoop: false}
	w.loops = append(w.loops, ctx)
	defer func() { w.loops = w.loops[:len(w.loops)-1] }()

	var out []state
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		cur := cloneAll(entry)
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				cur = w.expr(e, cur)
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
			cur = w.stmt(cc.Comm, cur)
			stmts = cc.Body
		}
		for _, s2 := range stmts {
			cur = w.stmt(s2, cur)
		}
		out = append(out, cur...)
	}
	if !hasDefault && !exactlyOne {
		out = append(out, entry...) // no case matched
	}
	out = append(out, ctx.breaks...) // break inside switch/select
	return dedup(out)
}

func (w *walker) branch(st *ast.BranchStmt, in []state) []state {
	switch st.Tok {
	case token.BREAK:
		// Unlabeled break targets the innermost loop/switch/select;
		// labeled break is approximated by the outermost context.
		for i := len(w.loops) - 1; i >= 0; i-- {
			if st.Label == nil || i == 0 {
				w.loops[i].breaks = append(w.loops[i].breaks, cloneAll(in)...)
				break
			}
		}
		return nil
	case token.CONTINUE:
		for i := len(w.loops) - 1; i >= 0; i-- {
			if w.loops[i].isLoop {
				w.loops[i].continues = append(w.loops[i].continues, cloneAll(in)...)
				break
			}
		}
		return nil
	case token.FALLTHROUGH:
		return in
	default: // goto: rare; treat as fallthrough (approximate)
		return in
	}
}

func (w *walker) deferStmt(st *ast.DeferStmt, in []state) []state {
	cur := in
	for _, a := range st.Call.Args {
		cur = w.expr(a, cur)
	}
	// defer mu.Unlock()
	if c, ok := Classify(w.info, st.Call); ok && c.Op == ReleaseOp {
		return w.markDeferred(cur, []string{c.Key})
	}
	// defer func() { ...; mu.Unlock(); ... }()
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		var keys []string
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if c, ok := Classify(w.info, call); ok && c.Op == ReleaseOp {
					keys = append(keys, c.Key)
				}
			}
			return true
		})
		if len(keys) > 0 {
			return w.markDeferred(cur, keys)
		}
	}
	return cur
}

func (w *walker) markDeferred(in []state, keys []string) []state {
	out := make([]state, 0, len(in))
	for _, s := range in {
		n := s.clone()
		if n.deferred == nil {
			n.deferred = map[string]bool{}
		}
		for _, k := range keys {
			n.deferred[k] = true
			for i := range n.held {
				if n.held[i].Call.Key == k {
					n.held[i].Deferred = true
				}
			}
		}
		out = append(out, n)
	}
	return out
}

// expr walks e in approximate evaluation order, applying lock calls and
// firing OnCall for other calls. Function literal bodies are skipped.
func (w *walker) expr(e ast.Expr, in []state) []state {
	if e == nil || len(in) == 0 {
		return in
	}
	cur := in
	var walk func(e ast.Expr)
	apply := func(call *ast.CallExpr) {
		if c, ok := Classify(w.info, call); ok {
			cur = w.applyLock(c, cur)
			return
		}
		if isPanic(w.info, call) {
			for _, s := range cur {
				if w.hooks.OnExit != nil {
					w.hooks.OnExit(call.Pos(), ExitPanic, s.held)
				}
			}
			cur = nil
			return
		}
		if w.hooks.OnCall != nil {
			for _, s := range cur {
				w.hooks.OnCall(call, s.held)
			}
		}
	}
	walk = func(e ast.Expr) {
		if e == nil || len(cur) == 0 {
			return
		}
		switch x := e.(type) {
		case *ast.CallExpr:
			walk(x.Fun)
			for _, a := range x.Args {
				walk(a)
			}
			apply(x)
		case *ast.FuncLit:
			// separate function; analyzed on its own
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.SelectorExpr:
			walk(x.X)
		case *ast.StarExpr:
			walk(x.X)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.Index)
		case *ast.SliceExpr:
			walk(x.X)
			walk(x.Low)
			walk(x.High)
			walk(x.Max)
		case *ast.TypeAssertExpr:
			walk(x.X)
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				walk(el)
			}
		case *ast.KeyValueExpr:
			walk(x.Key)
			walk(x.Value)
		}
	}
	walk(e)
	return cur
}

// tryCond matches an if condition that is exactly a TryLock/TryRLock call,
// optionally negated, and returns the classified call.
func (w *walker) tryCond(cond ast.Expr) (*Call, bool, bool) {
	negated := false
	e := cond
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.UnaryExpr:
			if x.Op == token.NOT {
				negated = !negated
				e = x.X
				continue
			}
		}
		break
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, false, false
	}
	c, ok := Classify(w.info, call)
	if !ok || c.Op != TryAcquireOp {
		return nil, false, false
	}
	return c, negated, true
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func (w *walker) applyLock(c *Call, in []state) []state {
	out := make([]state, 0, len(in))
	for _, s := range in {
		n := s.clone()
		switch c.Op {
		case AcquireOp, TryAcquireOp:
			if w.hooks.OnAcquire != nil {
				w.hooks.OnAcquire(c, n.held)
			}
			already := false
			for _, h := range n.held {
				if h.Call.Key == c.Key && h.Call.Read == c.Read {
					already = true
					break
				}
			}
			if !already {
				n.held = append(n.held, Held{Call: c, Deferred: n.deferred[c.Key]})
			}
		case ReleaseOp:
			for i := len(n.held) - 1; i >= 0; i-- {
				if n.held[i].Call.Key == c.Key {
					n.held = append(n.held[:i], n.held[i+1:]...)
					break
				}
			}
		}
		out = append(out, n)
	}
	return dedup(out)
}

func cloneAll(in []state) []state {
	out := make([]state, len(in))
	for i, s := range in {
		out[i] = s.clone()
	}
	return out
}

// Function is one analyzable function body: a declaration's or a function
// literal's.
type Function struct {
	Decl *ast.FuncDecl // nil for literals
	Body *ast.BlockStmt
}

// FunctionsOf collects the analyzable function bodies of a file.
func FunctionsOf(file *ast.File) []Function {
	var out []Function
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, Function{Decl: fn, Body: fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, Function{Body: fn.Body})
		}
		return true
	})
	return out
}
