package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module, named fixture unless files
// carries its own go.mod, and returns its directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if files["go.mod"] == "" {
		files["go.mod"] = "module fixture\n\ngo 1.21\n"
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// leakySrc is a file of package %s whose function %s keeps mu locked on its
// early return: the Lock on line 7, the return on line 9.
const leakySrc = `package %s

import "sync"

func %s(c bool) {
	var mu sync.Mutex
	mu.Lock()
	if c {
		return
	}
	mu.Unlock()
}
`

// cleanSrc carries a justified allow on line 8 with no finding under it.
const cleanSrc = `package p

import "sync"

var mu sync.Mutex

func Clean() {
	//lint:allow unlockpath -- nothing to suppress any more
	mu.Lock()
	mu.Unlock()
}
`

func runIn(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(dir, args, &stdout, &stderr)
	t.Logf("exit %d\nstdout:\n%sstderr:\n%s", code, stdout.String(), stderr.String())
	return code, stdout.String()
}

// TestStandaloneCoversEveryCompilationUnit: a finding in a non-test file,
// one in an in-package _test.go and one in an external _test package are
// all reported, and the run exits 1.
func TestStandaloneCoversEveryCompilationUnit(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"p/p.go":      fmt.Sprintf(leakySrc, "p", "Leak"),
		"p/p_test.go": fmt.Sprintf(leakySrc, "p", "leakInTest"),
		"p/x_test.go": fmt.Sprintf(leakySrc, "p_test", "leakInXTest"),
	})
	code, out := runIn(t, dir, "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, file := range []string{"p.go", "p_test.go", "x_test.go"} {
		want := filepath.Join(dir, "p", file) + ":7:2: mu acquired here is not released on a return path at line 9"
		if !strings.Contains(out, want) {
			t.Errorf("no finding in %s (want %q)", file, want)
		}
	}
}

// TestStandaloneCleanAndStaleAllow: a clean tree exits 0, and an allow with
// no finding under it passes a plain run but fails -staleallow.
func TestStandaloneCleanAndStaleAllow(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"p/p.go":      cleanSrc,
		"p/p_test.go": "package p\n\nfunc cleanInTest() { Clean() }\n",
	})
	if code, _ := runIn(t, dir, "./..."); code != 0 {
		t.Fatalf("clean tree: exit %d, want 0", code)
	}
	code, out := runIn(t, dir, "-staleallow", "./...")
	if code != 1 {
		t.Fatalf("-staleallow: exit %d, want 1", code)
	}
	want := filepath.Join(dir, "p", "p.go") + ":8:2: stale suppression: //lint:allow unlockpath no longer matches a finding"
	if !strings.Contains(out, want) {
		t.Fatalf("-staleallow did not flag the allow (want %q)", want)
	}
}

// TestDependencyFactsWithoutTheirFindings: run on the caller's package
// alone, the driver still computes the facts of the module package it
// imports. The callee summary of core.Keep, which marks its transaction
// shared, sanctions the composite literal in p, and core's own finding and
// stale allow are not reported.
func TestDependencyFactsWithoutTheirFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module repro\n\ngo 1.21\n",
		"internal/core/core.go": `package core

type Txn struct{ shared bool }

func (t *Txn) MarkShared() { t.shared = true }

type Box struct{ T *Txn }

// Keep marks t shared.
func Keep(t *Txn) { t.MarkShared() }

var sink *Txn

func Leak(t *Txn) {
	sink = t
}

func Quiet() {
	//lint:allow poolescape -- nothing to suppress
	Keep(nil)
}
`,
		"p/p.go": `package p

import "repro/internal/core"

func Boxed(t *core.Txn) *core.Box {
	core.Keep(t)
	return &core.Box{T: t}
}
`,
	})
	if code, out := runIn(t, dir, "-staleallow", "./p"); code != 0 || out != "" {
		t.Fatalf("./p alone: exit %d, output %q; want 0 and nothing", code, out)
	}
	code, out := runIn(t, dir, "./...")
	if code != 1 || !strings.Contains(out, filepath.Join(dir, "internal", "core", "core.go")+":15:") {
		t.Fatalf("./...: exit %d; want 1 with core's own finding at core.go:15", code)
	}
}
