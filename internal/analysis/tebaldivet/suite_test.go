package tebaldivet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoFunctionStyleAtomics holds the invariant the retired atomicmix
// analyzer guarded: a field is never read plainly beside an atomic access,
// because no non-test file calls a function-style sync/atomic API
// (atomic.AddUint64, LoadInt32, CompareAndSwapPointer, ...). Typed atomics
// cannot be accessed except through their methods.
func TestNoFunctionStyleAtomics(t *testing.T) {
	fset := token.NewFileSet()
	const root = "../../.." // the module; benchmark/ is a module of its own
	var sites []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || d.Name() == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "sync/atomic" {
				continue
			}
			name := "atomic"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
							sites = append(sites, fset.Position(call.Pos()).String())
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > 0 {
		t.Fatalf("function-style sync/atomic calls; use a typed atomic (atomic.Uint64, ...) instead:\n%s", strings.Join(sites, "\n"))
	}
}
