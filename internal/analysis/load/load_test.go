package load

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a file tree under a fresh temp dir and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func byPath(pkgs []*Package, path string) *Package {
	for _, p := range pkgs {
		if p.ImportPath == path {
			return p
		}
	}
	return nil
}

// TestBuildTaggedFiles: files excluded by build constraints must not reach
// the parser or the type checker.
func TestBuildTaggedFiles(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module example.com/tagged\n\ngo 1.21\n",
		"a.go":   "package tagged\n\nfunc Kept() int { return 1 }\n",
		"b.go": "//go:build neverenabled\n\npackage tagged\n\n" +
			"func Dropped() int { return undefinedSymbol }\n",
	})
	pkgs, err := Packages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	p := byPath(pkgs, "example.com/tagged")
	if p == nil {
		t.Fatalf("package not loaded; got %d packages", len(pkgs))
	}
	if p.IllTyped || p.Err != nil {
		t.Fatalf("tagged-out file leaked into the build: IllTyped=%v Err=%v", p.IllTyped, p.Err)
	}
	if len(p.Files) != 1 {
		t.Fatalf("got %d files, want 1 (b.go is tagged out)", len(p.Files))
	}
	if p.Types.Scope().Lookup("Kept") == nil {
		t.Fatal("Kept not in package scope")
	}
	if p.Types.Scope().Lookup("Dropped") != nil {
		t.Fatal("Dropped from the tagged-out file is in package scope")
	}
}

// TestVendoredDependency: a module with a vendor tree must load with the
// vendored package resolved (and not analyzed itself — it is a dependency,
// not a target).
func TestVendoredDependency(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module example.com/app\n\ngo 1.21\n\nrequire example.com/dep v1.0.0\n",
		"main.go": "package app\n\nimport \"example.com/dep\"\n\n" +
			"func Use() int { return dep.Answer() }\n",
		"vendor/modules.txt": "# example.com/dep v1.0.0\n## explicit; go 1.21\nexample.com/dep\n",
		"vendor/example.com/dep/dep.go": "package dep\n\n" +
			"func Answer() int { return 42 }\n",
	})
	pkgs, err := Packages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	p := byPath(pkgs, "example.com/app")
	if p == nil {
		t.Fatalf("app package not loaded; got %v", importPaths(pkgs))
	}
	if p.IllTyped || p.Err != nil {
		t.Fatalf("vendored import failed: IllTyped=%v Err=%v", p.IllTyped, p.Err)
	}
	if dep := byPath(pkgs, "example.com/dep"); dep != nil {
		t.Fatal("vendored dependency was returned as an analysis target")
	}
}

// TestCompileErrorDegrades: a package that does not type-check must come
// back IllTyped with partial results while sibling packages load normally —
// and nothing panics.
func TestCompileErrorDegrades(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":       "module example.com/broken\n\ngo 1.21\n",
		"good/good.go": "package good\n\nfunc Fine() {}\n",
		"bad/bad.go": "package bad\n\n" +
			"func Typo() int { return \"not an int\" }\n",
	})
	pkgs, err := Packages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bad := byPath(pkgs, "example.com/broken/bad")
	if bad == nil {
		t.Fatalf("broken package dropped from results; got %v", importPaths(pkgs))
	}
	if !bad.IllTyped || bad.Err == nil {
		t.Fatalf("broken package not marked: IllTyped=%v Err=%v", bad.IllTyped, bad.Err)
	}
	if len(bad.Files) == 0 || bad.Types == nil {
		t.Fatal("broken package lost its partial results")
	}
	good := byPath(pkgs, "example.com/broken/good")
	if good == nil || good.IllTyped || good.Err != nil {
		t.Fatalf("sibling package degraded too: %+v", good)
	}
}

// TestSyntaxErrorDegrades: a file the parser rejects degrades its package,
// not the load.
func TestSyntaxErrorDegrades(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":         "module example.com/synerr\n\ngo 1.21\n",
		"mangled/bad.go": "package mangled\n\nfunc Unclosed( {\n",
		"ok/ok.go":       "package ok\n\nfunc Fine() {}\n",
	})
	pkgs, err := Packages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bad := byPath(pkgs, "example.com/synerr/mangled")
	if bad == nil {
		t.Fatalf("mangled package dropped; got %v", importPaths(pkgs))
	}
	if !bad.IllTyped || bad.Err == nil {
		t.Fatalf("mangled package not marked: IllTyped=%v Err=%v", bad.IllTyped, bad.Err)
	}
	if good := byPath(pkgs, "example.com/synerr/ok"); good == nil || good.IllTyped {
		t.Fatalf("sibling package degraded too: %+v", good)
	}
}

// TestDependencyOrder: Packages must return importers after their imports so
// a fact-sharing session can run front to back.
func TestDependencyOrder(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":     "module example.com/order\n\ngo 1.21\n",
		"leaf/a.go":  "package leaf\n\nfunc A() {}\n",
		"mid/b.go":   "package mid\n\nimport \"example.com/order/leaf\"\n\nfunc B() { leaf.A() }\n",
		"root/c.go":  "package root\n\nimport \"example.com/order/mid\"\n\nfunc C() { mid.B() }\n",
		"other/d.go": "package other\n\nfunc D() {}\n",
	})
	pkgs, err := Packages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, p := range pkgs {
		pos[p.ImportPath] = i
	}
	leaf, mid, root := pos["example.com/order/leaf"], pos["example.com/order/mid"], pos["example.com/order/root"]
	if !(leaf < mid && mid < root) {
		t.Fatalf("not dependency-ordered: %v", importPaths(pkgs))
	}
}

// TestExternalTestSeesExportTest: an external test package must type-check
// against the package under test WITH its in-package test files (the
// export_test.go idiom), also when the test-only symbol meets a value that
// came through a third package importing the package under test.
func TestExternalTestSeesExportTest(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":                "module example.com/xt\n\ngo 1.21\n",
		"low/low.go":            "package low\n\ntype T struct{ n int }\n\nfunc New() *T { return &T{} }\n",
		"low/export_test.go":    "package low\n\nfunc Peek(t *T) int { return t.n }\n",
		"low/low_x_test.go":     "package low_test\n\nimport (\n\t\"example.com/xt/low\"\n\t\"example.com/xt/user\"\n)\n\nvar _ = low.Peek(user.Make())\n",
		"user/user.go":          "package user\n\nimport \"example.com/xt/low\"\n\nfunc Make() *low.T { return low.New() }\n",
		"user/user_x_test.go":   "package user_test\n\nimport \"example.com/xt/user\"\n\nvar _ = user.Make()\n",
		"user/unused_test.go":   "package user\n",
		"plain/plain.go":        "package plain\n\nfunc F() {}\n",
		"plain/plain_x_test.go": "package plain_test\n\nimport \"example.com/xt/plain\"\n\nvar _ = plain.F\n",
	})
	pkgs, err := Packages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"example.com/xt/low_test", "example.com/xt/user_test", "example.com/xt/plain_test"} {
		p := byPath(pkgs, path)
		if p == nil {
			t.Fatalf("%s not loaded: %v", path, importPaths(pkgs))
		}
		if p.IllTyped || p.Err != nil {
			t.Errorf("%s: IllTyped=%v Err=%v", path, p.IllTyped, p.Err)
		}
	}
}

func importPaths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.ImportPath)
	}
	return out
}

// TestToposortCycleDoesNotHang: broken loads can present cyclic imports;
// Toposort must keep every package and terminate.
func TestToposortCycleDoesNotHang(t *testing.T) {
	a := &Package{ImportPath: "a", Imports: []string{"b"}}
	b := &Package{ImportPath: "b", Imports: []string{"a"}}
	got := Toposort([]*Package{a, b})
	if len(got) != 2 {
		t.Fatalf("cycle dropped packages: %d", len(got))
	}
	names := []string{got[0].ImportPath, got[1].ImportPath}
	if strings.Join(names, ",") != "b,a" && strings.Join(names, ",") != "a,b" {
		t.Fatalf("unexpected order %v", names)
	}
}
