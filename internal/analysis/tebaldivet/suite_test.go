package tebaldivet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/load"
)

// moduleRoot is the module this package lives in; benchmark/ is a module
// of its own.
const moduleRoot = "../../.."

// sourceFile is one parsed Go file of the module, named by its slash path
// relative to the module root.
type sourceFile struct {
	path string
	ast  *ast.File
}

// moduleSources parses every Go file of the module outside testdata,
// benchmark/ and hidden directories, test files included.
func moduleSources(t *testing.T, fset *token.FileSet) []sourceFile {
	t.Helper()
	var files []sourceFile
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != moduleRoot && (d.Name() == "testdata" || d.Name() == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleRoot, path)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{filepath.ToSlash(rel), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func (f sourceFile) isTest() bool { return strings.HasSuffix(f.path, "_test.go") }

// importName returns the name under which f imports path, or "".
func (f sourceFile) importName(path string) string {
	for _, imp := range f.ast.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return pathpkg.Base(strings.TrimSuffix(p, "/v2"))
		}
	}
	return ""
}

// calls returns "position: pkg.Name" for every call pkg.Name(...) in f
// whose Name match accepts; pkg "" matches nothing.
func (f sourceFile) calls(fset *token.FileSet, pkg string, match func(name string) bool) []string {
	var sites []string
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && pkg != "" && id.Name == pkg && match(sel.Sel.Name) {
					sites = append(sites, fmt.Sprintf("%s: %s.%s", fset.Position(call.Pos()), pkg, sel.Sel.Name))
				}
			}
		}
		return true
	})
	return sites
}

// TestNoFunctionStyleAtomics holds the invariant the retired atomicmix
// analyzer guarded: a field is never read plainly beside an atomic access,
// because no non-test file calls a function-style sync/atomic API
// (atomic.AddUint64, LoadInt32, CompareAndSwapPointer, ...). Typed atomics
// cannot be accessed except through their methods.
func TestNoFunctionStyleAtomics(t *testing.T) {
	fset := token.NewFileSet()
	var sites []string
	for _, f := range moduleSources(t, fset) {
		if !f.isTest() {
			sites = append(sites, f.calls(fset, f.importName("sync/atomic"), func(string) bool { return true })...)
		}
	}
	if len(sites) > 0 {
		t.Fatalf("function-style sync/atomic calls; use a typed atomic (atomic.Uint64, ...) instead:\n%s", strings.Join(sites, "\n"))
	}
}

// TestGoroutinesAreLeakChecked holds the invariant the retired goroleak
// analyzer guarded, and more: it cannot see a stop channel nobody closes,
// a goroutine check after the tests can. Every package with a non-test go
// statement (commands and examples aside) has a TestMain that calls
// leaktest.Main, so its tests fail while a goroutine of this module
// outlives them.
func TestGoroutinesAreLeakChecked(t *testing.T) {
	fset := token.NewFileSet()
	spawns := map[string]string{} // package directory -> first go statement
	checked := map[string]bool{}
	for _, f := range moduleSources(t, fset) {
		dir := pathpkg.Dir(f.path)
		if f.isTest() {
			checked[dir] = checked[dir] || callsLeaktestMain(fset, f)
			continue
		}
		if dir == "cmd" || strings.HasPrefix(dir, "cmd/") || dir == "examples" || strings.HasPrefix(dir, "examples/") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && spawns[dir] == "" {
				spawns[dir] = fset.Position(g.Pos()).String()
			}
			return true
		})
	}
	var missing []string
	for dir, site := range spawns {
		if !checked[dir] {
			missing = append(missing, fmt.Sprintf("%s (go statement at %s)", dir, site))
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("packages that start goroutines need func TestMain(m *testing.M) { leaktest.Main(m) } in a test file:\n%s", strings.Join(missing, "\n"))
	}
}

// callsLeaktestMain reports whether f declares a TestMain and calls
// leaktest.Main.
func callsLeaktestMain(fset *token.FileSet, f sourceFile) bool {
	for _, d := range f.ast.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "TestMain" {
			return len(f.calls(fset, f.importName("repro/internal/leaktest"), func(name string) bool { return name == "Main" })) > 0
		}
	}
	return false
}

// TestAnomalyDriverReadsNoClockOrGlobalRand holds half of the invariant the
// retired detguard analyzer guarded: the anomaly suite's schedule driver
// (internal/engine/anomaly) neither reads the wall clock nor draws from the
// global math/rand source, so a failing interleaving fails the same way on
// every run. Timers that bound a wait (time.After) stay legal. The other
// half, no outcome decided by map order, is TestReplay in that package.
func TestAnomalyDriverReadsNoClockOrGlobalRand(t *testing.T) {
	fset := token.NewFileSet()
	var sites []string
	for _, f := range moduleSources(t, fset) {
		if f.isTest() || pathpkg.Dir(f.path) != "internal/engine/anomaly" {
			continue
		}
		sites = append(sites, f.calls(fset, f.importName("time"), func(name string) bool {
			return name == "Now" || name == "Since" || name == "Until"
		})...)
		for _, path := range []string{"math/rand", "math/rand/v2"} {
			sites = append(sites, f.calls(fset, f.importName(path), func(name string) bool {
				return !strings.HasPrefix(name, "New") // New, NewSource, NewPCG, ... make seeded sources
			})...)
		}
	}
	if len(sites) > 0 {
		t.Fatalf("wall-clock reads or global rand draws in the anomaly driver make its schedules unreplayable:\n%s", strings.Join(sites, "\n"))
	}
}

// durabilityCalls are the calls that make a file durable. Outside
// internal/kvstore a non-test file makes none of them, so each goes through
// one of the log store's fault points.
var durabilityCalls = map[string]bool{
	"(*os.File).Sync":       true,
	"(*os.File).WriteAt":    true,
	"(*os.File).Truncate":   true,
	"os.Truncate":           true,
	"os.Rename":             true,
	"(*bufio.Writer).Flush": true,
}

// TestDurabilityCallsStayInKvstore holds the invariant the retired syncerr
// analyzer guarded, together with the fault matrix
// (engine.TestFaultPointsAcrossTheLogsLife): a durability error reaches
// the caller. The matrix fails every fault point of the log store and
// checks the outcome; this scan makes sure no file Sync, WriteAt, Truncate,
// buffered Flush or os.Rename bypasses those points. It resolves calls by
// type, so the WAL's calls of kvstore.Store.Sync are not file syncs.
func TestDurabilityCallsStayInKvstore(t *testing.T) {
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Packages(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.IllTyped || pkg.Info == nil {
			t.Fatalf("ill-typed package %s: %v", pkg.ImportPath, pkg.Err)
		}
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			rel, err := filepath.Rel(root, name)
			if err != nil || strings.HasSuffix(name, "_test.go") || filepath.ToSlash(filepath.Dir(rel)) == "internal/kvstore" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && durabilityCalls[fn.FullName()] {
					pos := pkg.Fset.Position(call.Pos())
					sites[fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, fn.FullName())] = true
				}
				return true
			})
		}
	}
	if len(sites) > 0 {
		var list []string
		for s := range sites {
			list = append(list, s)
		}
		sort.Strings(list)
		t.Fatalf("durability calls outside internal/kvstore bypass its fault points; log through kvstore.Store instead:\n%s", strings.Join(list, "\n"))
	}
}
