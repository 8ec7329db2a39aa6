// Package ssa is the interprocedural substrate of the tebaldivet analyzers:
// a def-use/value-flow approximation over go/ast and go/types (the
// stdlib-only stand-in for a full SSA IR) and static call resolution.
// Per-function results are exported through the framework's fact store as
// summaries, so analysis composes across the packages of one
// dependency-ordered driver session.
//
// The value-flow model is deliberately modest — and documented, so its
// approximations are auditable:
//
//   - values are canonicalized by union-find: `a := b` aliases a to b, and
//     loads spelled identically (`tx.t` twice) are one value;
//   - flow is insensitive to statement order within a function: a value
//     marked anywhere in a body counts as marked for all of it;
//   - each value carries the set of origins it may come from (parameter,
//     global, load, call result, fresh literal), which is what the escape
//     rules dispatch on.
package ssa

import (
	"fmt"
	"go/ast"
	"go/types"
)

// OriginKind classifies where a tracked value may come from.
type OriginKind int

const (
	// OriginUnknown: no recorded source (e.g. `var t *T` never assigned).
	OriginUnknown OriginKind = iota
	// OriginParam: a parameter or the receiver of the function under
	// analysis (TrackedParams carries its flat index).
	OriginParam
	// OriginGlobal: a package-level variable.
	OriginGlobal
	// OriginLoad: loaded from a struct field, map, slice, array, or
	// pointer dereference — the function exposes an already-retained
	// pointer.
	OriginLoad
	// OriginCall: the result of a call or type assertion.
	OriginCall
	// OriginFresh: a composite literal (or its address) built here.
	OriginFresh
	// OriginFree: a variable captured from an enclosing function (only
	// seen when analyzing a function literal's body in isolation).
	OriginFree
)

// ValueID is the canonical identity of one value within a Flow.
type ValueID string

// ParamRef is one tracked parameter of the function under analysis.
type ParamRef struct {
	// Index is the flat index (receiver first).
	Index int
	Obj   *types.Var
}

// Flow is the value-flow approximation for one function body.
type Flow struct {
	info    *types.Info
	tracked func(types.Type) bool

	parent  map[string]string
	origins map[string]map[OriginKind]bool
	params  []ParamRef
	inFunc  map[types.Object]bool // objects declared in this function (incl. params)
}

// BuildFlow analyzes one function's syntax. recv may be nil (plain
// functions and literals); body may be nil (no-op flow). tracked selects
// the value type under analysis (e.g. *core.Txn).
func BuildFlow(info *types.Info, recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt, tracked func(types.Type) bool) *Flow {
	f := &Flow{
		info:    info,
		tracked: tracked,
		parent:  map[string]string{},
		origins: map[string]map[OriginKind]bool{},
		inFunc:  map[types.Object]bool{},
	}
	flat := 0
	addParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				flat++ // unnamed receiver/param still occupies an index
				continue
			}
			for _, name := range field.Names {
				obj, _ := info.Defs[name].(*types.Var)
				if obj != nil {
					f.inFunc[obj] = true
					if tracked(obj.Type()) {
						f.params = append(f.params, ParamRef{Index: flat, Obj: obj})
						f.addOrigin(f.objKey(obj), OriginParam)
					}
				}
				flat++
			}
		}
	}
	addParams(recv)
	if ftype != nil {
		addParams(ftype.Params)
	}
	if body == nil {
		return f
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			f.assign(x.Lhs, x.Rhs)
		case *ast.ValueSpec:
			var lhs []ast.Expr
			for _, id := range x.Names {
				if obj := info.Defs[id]; obj != nil {
					f.inFunc[obj] = true
				}
				lhs = append(lhs, id)
			}
			f.assign(lhs, x.Values)
		case *ast.RangeStmt:
			// Iteration variables over a container of tracked values are
			// loads.
			for _, v := range []ast.Expr{x.Key, x.Value} {
				if v == nil {
					continue
				}
				if k, ok := f.keyOf(v); ok {
					f.addOrigin(k, OriginLoad)
				}
			}
		case ast.Expr:
			// Record the intrinsic origin of every tracked expression as
			// it is visited.
			if k, ok := f.keyOf(x); ok {
				f.recordIntrinsic(k, x)
			}
		}
		return true
	})
	return f
}

// TrackedParams returns the function's tracked parameters (receiver
// included, flat-indexed).
func (f *Flow) TrackedParams() []ParamRef { return f.params }

// ValueOf canonicalizes a tracked expression, reporting false for
// expressions that are not tracked values.
func (f *Flow) ValueOf(e ast.Expr) (ValueID, bool) {
	k, ok := f.keyOf(e)
	if !ok {
		return "", false
	}
	return ValueID(f.find(k)), true
}

// HasOrigin reports whether any source of v has kind k.
func (f *Flow) HasOrigin(v ValueID, k OriginKind) bool {
	return f.origins[f.find(string(v))][k]
}

// ValueOfParam canonicalizes a tracked parameter returned by TrackedParams.
func (f *Flow) ValueOfParam(p ParamRef) ValueID {
	return ValueID(f.find(f.objKey(p.Obj)))
}

// assign unions assignable tracked pairs and threads tuple results.
func (f *Flow) assign(lhs, rhs []ast.Expr) {
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			lk, lok := f.keyOf(lhs[i])
			if !lok {
				continue
			}
			if rk, rok := f.keyOf(rhs[i]); rok {
				f.union(lk, rk)
			}
		}
	case len(rhs) == 1 && len(lhs) > 1:
		// x, y := f()  /  v, ok := m[k]  /  t, ok := x.(*T)
		for i, l := range lhs {
			lk, lok := f.keyOf(l)
			if !lok {
				continue
			}
			switch r := Unparen(rhs[0]).(type) {
			case *ast.CallExpr:
				f.union(lk, fmt.Sprintf("t:%d#%d", r.Pos(), i))
				f.addOrigin(lk, OriginCall)
			case *ast.TypeAssertExpr:
				f.addOrigin(lk, OriginCall)
			case *ast.IndexExpr, *ast.UnaryExpr:
				// map load with comma-ok, channel receive
				f.addOrigin(lk, OriginLoad)
			}
		}
	}
}

// recordIntrinsic attaches the origin an expression shape implies.
func (f *Flow) recordIntrinsic(key string, e ast.Expr) {
	switch x := Unparen(e).(type) {
	case *ast.Ident:
		obj := f.objOf(x)
		if obj == nil {
			return
		}
		switch {
		case f.inFunc[obj]:
			// Param origins were added up front; plain locals get their
			// origins from assignments.
		case obj.Parent() != nil && obj.Parent().Parent() == types.Universe:
			f.addOrigin(key, OriginGlobal)
		default:
			f.addOrigin(key, OriginFree)
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		f.addOrigin(key, OriginLoad)
	case *ast.CallExpr, *ast.TypeAssertExpr:
		f.addOrigin(key, OriginCall)
	case *ast.CompositeLit:
		f.addOrigin(key, OriginFresh)
	case *ast.UnaryExpr:
		if _, ok := x.X.(*ast.CompositeLit); ok {
			f.addOrigin(key, OriginFresh)
		}
	}
}

// keyOf computes the canonicalizable key of a tracked expression.
func (f *Flow) keyOf(e ast.Expr) (string, bool) {
	e = Unparen(e)
	tv, ok := f.info.Types[e]
	if !ok || !f.tracked(tv.Type) {
		// Defining idents (lhs of :=) carry no Types entry; fall through
		// for idents and check the object type.
		if id, isIdent := e.(*ast.Ident); isIdent {
			if obj := f.objOf(id); obj != nil && f.tracked(obj.Type()) {
				return f.objKey(obj), true
			}
		}
		return "", false
	}
	switch x := e.(type) {
	case *ast.Ident:
		if obj := f.objOf(x); obj != nil {
			return f.objKey(obj), true
		}
		return "", false
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return "s:" + types.ExprString(x), true
	case *ast.CallExpr, *ast.TypeAssertExpr, *ast.CompositeLit, *ast.UnaryExpr:
		return fmt.Sprintf("e:%d", x.Pos()), true
	default:
		return "", false
	}
}

func (f *Flow) objOf(id *ast.Ident) types.Object {
	if obj := f.info.Uses[id]; obj != nil {
		return obj
	}
	return f.info.Defs[id]
}

func (f *Flow) objKey(obj types.Object) string {
	return fmt.Sprintf("o:%d", obj.Pos())
}

// union-find

func (f *Flow) find(k string) string {
	p, ok := f.parent[k]
	if !ok || p == k {
		return k
	}
	root := f.find(p)
	f.parent[k] = root
	return root
}

func (f *Flow) union(a, b string) {
	ra, rb := f.find(a), f.find(b)
	if ra == rb {
		return
	}
	f.parent[ra] = rb
	// Merge origin sets into the new root.
	if set := f.origins[ra]; set != nil {
		dst := f.origins[rb]
		if dst == nil {
			dst = map[OriginKind]bool{}
			f.origins[rb] = dst
		}
		for o := range set {
			dst[o] = true
		}
		delete(f.origins, ra)
	}
}

func (f *Flow) addOrigin(k string, o OriginKind) {
	root := f.find(k)
	set := f.origins[root]
	if set == nil {
		set = map[OriginKind]bool{}
		f.origins[root] = set
	}
	set[o] = true
}
