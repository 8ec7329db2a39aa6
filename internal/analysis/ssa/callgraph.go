package ssa

import (
	"go/ast"
	"go/types"
)

// Decls indexes the package's declared functions with bodies, mapping the
// *types.Func object to its syntax. Function literals are not included —
// they have no object; analyzers reach them through the enclosing
// declaration's body.
func Decls(info *types.Info, files []*ast.File) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				out[obj] = fd
			}
		}
	}
	return out
}

// StaticCallee resolves a call to a concrete function or method, or nil for
// interface dispatch, func values, builtins, and conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return nil
	}
	return obj
}

// Unparen strips any enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// NamedOf unwraps pointers to the underlying named type, or nil.
func NamedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}

// IsNamed reports whether t (possibly through pointers) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n := NamedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
