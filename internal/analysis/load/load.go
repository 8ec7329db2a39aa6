// Package load type-checks Go packages for the tebaldivet analyzers using
// only the standard library: package metadata and compiled export data come
// from `go list -export`, dependencies are imported through the stdlib gc
// importer, and only the packages under analysis are parsed from source.
// This is the offline stand-in for golang.org/x/tools/go/packages.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// Imports are the package's direct imports (load order input).
	Imports []string
	// Err is non-nil when the package failed to list, parse, or type-check.
	// The load degrades to partial results: Files/Types/Info hold whatever
	// survived (possibly nil), and the driver decides whether to analyze.
	Err error
	// IllTyped marks a package whose type information is incomplete
	// (Err != nil, or a dependency failed to import). Analyzers relying on
	// full type info should skip ill-typed packages.
	IllTyped bool
	// DepOnly marks a module package that no pattern matched but a matched
	// package imports, directly or not. It is loaded from its non-test
	// files so that the facts it exports reach its importers; its own
	// findings are not asked for.
	DepOnly bool
}

// listEntry is the subset of `go list -json` output we consume.
type listEntry struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Standard     bool
	DepOnly      bool
	Incomplete   bool
	Error        *struct{ Err string }
	Module       *struct{ Main bool }
}

// goList runs `go list -e -export -deps -json` in dir for the patterns and
// returns the decoded entries.
func goList(dir string, patterns []string) ([]*listEntry, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports,Standard,DepOnly,Incomplete,Error,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var entries []*listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		entries = append(entries, &e)
	}
	return entries, nil
}

// Exports resolves import paths to gc export data files, shelling out to
// `go list -export` on cache misses. It is the importer backing both the
// repo driver and the analysistest testdata loader.
type Exports struct {
	ModuleDir string
	files     map[string]string
}

// lookup returns a reader for path's export data, or nil if unknown.
func (x *Exports) lookup(path string) (io.ReadCloser, error) {
	if x.files == nil {
		x.files = map[string]string{}
	}
	if f, ok := x.files[path]; ok {
		return os.Open(f)
	}
	entries, err := goList(x.ModuleDir, []string{path})
	if err != nil {
		return nil, err
	}
	x.add(entries)
	if f, ok := x.files[path]; ok {
		return os.Open(f)
	}
	return nil, fmt.Errorf("no export data for %q", path)
}

func (x *Exports) add(entries []*listEntry) {
	if x.files == nil {
		x.files = map[string]string{}
	}
	for _, e := range entries {
		if e.Export != "" {
			x.files[e.ImportPath] = e.Export
		}
	}
}

// newInfo returns a types.Info with every map the analyzers use.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Packages loads and type-checks the module packages matching patterns
// (e.g. "./..."), rooted at moduleDir, and the packages of the same module
// they import (marked DepOnly). Standard-library packages and those of
// other modules are imported from export data, not analyzed. Test files are
// included — in-package tests compiled with their package, external _test
// packages as their own entry — the same units `go vet` compiles.
//
// The load degrades rather than fails: a package that cannot be listed,
// parsed, or type-checked is returned with Err set and IllTyped true
// (carrying whatever syntax and partial type information survived), and
// every other package still loads. Only a driver-level failure (go list
// itself erroring) aborts the whole load.
//
// Packages are returned in dependency order — every package follows the
// packages it imports — so a fact-sharing analysis session can run over the
// slice front to back.
func Packages(moduleDir string, patterns ...string) ([]*Package, error) {
	entries, err := goList(moduleDir, patterns)
	if err != nil {
		return nil, err
	}
	exports := &Exports{ModuleDir: moduleDir}
	exports.add(entries)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exports.lookup)

	// parse returns every file that parsed plus the first parse error:
	// a syntactically broken file degrades its package, not the load.
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		var firstErr error
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if f != nil {
				files = append(files, f)
			}
		}
		return files, firstErr
	}

	// check type-checks one unit, tolerating errors: the returned package
	// and info are the partial results the checker could produce.
	check := func(imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
		info := newInfo()
		var firstErr error
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		tpkg, err := conf.Check(path, fset, files, info)
		if firstErr == nil {
			firstErr = err
		}
		return tpkg, info, firstErr
	}

	byPath := map[string]*listEntry{}
	for _, e := range entries {
		byPath[e.ImportPath] = e
	}
	var pkgs []*Package
	for _, e := range entries {
		inModule := e.Module != nil && e.Module.Main
		if e.Standard || (e.DepOnly && !inModule) || (len(e.GoFiles) == 0 && e.Error == nil) {
			continue
		}
		names, testImports := e.GoFiles, e.TestImports
		if e.DepOnly {
			testImports = nil // a dependency's tests are not loaded
		} else {
			names = append(append([]string{}, names...), e.TestGoFiles...)
		}
		p := &Package{
			ImportPath: e.ImportPath,
			Dir:        e.Dir,
			Fset:       fset,
			Imports:    mergeImports(e.Imports, testImports),
			DepOnly:    e.DepOnly,
		}
		if e.Error != nil {
			p.Err = fmt.Errorf("%s: %s", e.ImportPath, e.Error.Err)
			p.IllTyped = true
		}
		files, parseErr := parse(e.Dir, names)
		p.Files = files
		if parseErr != nil && p.Err == nil {
			p.Err = parseErr
			p.IllTyped = true
		}
		if len(files) > 0 {
			tpkg, info, checkErr := check(imp, e.ImportPath, files)
			p.Types, p.Info = tpkg, info
			if checkErr != nil {
				if p.Err == nil {
					p.Err = fmt.Errorf("type-checking %s: %v", e.ImportPath, checkErr)
				}
				p.IllTyped = true
			}
		}
		pkgs = append(pkgs, p)
		if len(e.XTestGoFiles) > 0 && !e.DepOnly {
			xp := &Package{
				ImportPath: e.ImportPath + "_test",
				Dir:        e.Dir,
				Fset:       fset,
				Imports:    append(mergeImports(e.XTestImports, nil), e.ImportPath),
			}
			xfiles, xparseErr := parse(e.Dir, e.XTestGoFiles)
			xp.Files = xfiles
			if xparseErr != nil {
				xp.Err = xparseErr
				xp.IllTyped = true
			}
			if len(xfiles) > 0 {
				ximp := types.Importer(imp)
				if p.Types != nil && len(e.TestGoFiles) > 0 {
					ximp = &xtestImporter{under: p.Types, entries: byPath, base: imp, done: map[string]*types.Package{},
						check: func(imp types.Importer, path string, names []string) (*types.Package, error) {
							files, err := parse(byPath[path].Dir, names)
							if err != nil {
								return nil, err
							}
							tpkg, _, err := check(imp, path, files)
							return tpkg, err
						}}
				}
				xpkg, xinfo, xcheckErr := check(ximp, e.ImportPath+"_test", xfiles)
				xp.Types, xp.Info = xpkg, xinfo
				if xcheckErr != nil {
					if xp.Err == nil {
						xp.Err = fmt.Errorf("type-checking %s_test: %v", e.ImportPath, xcheckErr)
					}
					xp.IllTyped = true
				}
			}
			pkgs = append(pkgs, xp)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return Toposort(pkgs), nil
}

// xtestImporter is the importer of one external test package. The package
// under test resolves to its source-checked form, in-package test files
// included, so what an export_test.go declares exists. Module packages that
// import the package under test, directly or not, are re-checked from source
// against that form: their export data refers to the package without its test
// files, and the two would not be the same types. Everything else comes from
// export data.
type xtestImporter struct {
	under   *types.Package
	entries map[string]*listEntry
	base    types.Importer
	check   func(imp types.Importer, path string, goFiles []string) (*types.Package, error)
	done    map[string]*types.Package
}

func (x *xtestImporter) Import(path string) (*types.Package, error) {
	if path == x.under.Path() {
		return x.under, nil
	}
	if p, ok := x.done[path]; ok {
		return p, nil
	}
	e := x.entries[path]
	if e == nil || !x.reaches(e, map[string]bool{}) {
		return x.base.Import(path)
	}
	p, err := x.check(x, path, e.GoFiles)
	x.done[path] = p
	return p, err
}

// reaches reports whether e imports the package under test, transitively.
func (x *xtestImporter) reaches(e *listEntry, seen map[string]bool) bool {
	for _, path := range e.Imports {
		if path == x.under.Path() {
			return true
		}
		if d := x.entries[path]; d != nil && !d.Standard && !seen[path] {
			seen[path] = true
			if x.reaches(d, seen) {
				return true
			}
		}
	}
	return false
}

func mergeImports(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range append(append([]string{}, a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Toposort orders packages so that every package follows its imports
// (restricted to the given set). The input order breaks ties, and cycles —
// impossible for valid Go, possible for broken loads — are appended in
// input order rather than dropped.
func Toposort(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	state := map[*Package]int{} // 0 unvisited, 1 visiting, 2 done
	out := make([]*Package, 0, len(pkgs))
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok && state[dep] == 0 {
				visit(dep)
			}
		}
		state[p] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// SourceLoader type-checks packages from a GOPATH-style source tree
// (testdata/src/<importpath>/*.go), resolving imports first against the
// tree itself and then against the surrounding module's export data. It is
// the loader behind the analysistest harness.
type SourceLoader struct {
	Fset    *token.FileSet
	SrcRoot string
	Exports *Exports

	pkgs  map[string]*Package
	types map[string]*types.Package
	gc    types.Importer
}

// Load parses and type-checks the tree package at import path.
func (l *SourceLoader) Load(path string) (*Package, error) {
	if l.pkgs == nil {
		l.pkgs = map[string]*Package{}
		l.types = map[string]*types.Package{}
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.SrcRoot, filepath.FromSlash(path))
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, de.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: (*sourceFirstImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	p := &Package{ImportPath: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	for _, f := range files {
		for _, spec := range f.Imports {
			if ip, err := strconv.Unquote(spec.Path.Value); err == nil {
				p.Imports = append(p.Imports, ip)
			}
		}
	}
	p.Imports = mergeImports(p.Imports, nil)
	l.pkgs[path] = p
	l.types[path] = tpkg
	return p, nil
}

// Package returns a previously loaded tree package, or nil. Loading a
// package pulls its tree dependencies in through the source-first importer,
// so after Load(target) every reachable testdata package is available here.
func (l *SourceLoader) Package(path string) *Package { return l.pkgs[path] }

// sourceFirstImporter resolves testdata-tree packages from source and
// everything else from module export data.
type sourceFirstImporter SourceLoader

func (imp *sourceFirstImporter) Import(path string) (*types.Package, error) {
	l := (*SourceLoader)(imp)
	if tp, ok := l.types[path]; ok {
		return tp, nil
	}
	if st, err := os.Stat(filepath.Join(l.SrcRoot, filepath.FromSlash(path))); err == nil && st.IsDir() {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	// One shared gc importer keeps dependency type identity consistent
	// across the testdata packages of a run.
	if l.gc == nil {
		l.gc = importer.ForCompiler(l.Fset, "gc", l.Exports.lookup)
	}
	return l.gc.Import(path)
}
