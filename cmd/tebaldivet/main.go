// Command tebaldivet is the repo's domain-specific vet tool: three static
// analyzers that turn the engine's concurrency invariants into
// compile-time checks (see internal/analysis/tebaldivet).
//
//	go run ./cmd/tebaldivet ./...
//
// The driver loads packages itself (stdlib-only go/packages substitute, see
// internal/analysis/load) — non-test files, in-package tests and external
// _test packages — runs one fact-sharing session over the
// dependency-ordered package list, and dedups findings reported at the same
// position by multiple compilation units. The module packages the requested
// ones import are analyzed too, for the facts they export, so a package
// gets the same findings alone as in ./...; their own findings and allows
// are not reported.
//
// Findings are suppressed by an adjacent justified annotation:
//
//	//lint:allow <analyzer> -- <why this is safe>
//
// Flags:
//
//	-sarif FILE     also write findings as SARIF 2.1.0 (GitHub code scanning)
//	-staleallow     audit mode: flag //lint:allow comments whose analyzer no
//	                longer fires at that site
//	-escapepoints   print the poolescape-derived *core.Txn escape-point list
//
// Exit status: 0 clean, 1 unsuppressed findings (or stale allows under
// -staleallow), 2 bad flags, 3 driver error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/load"
	"repro/internal/analysis/poolescape"
	"repro/internal/analysis/sarif"
	"repro/internal/analysis/tebaldivet"
)

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tebaldivet:", err)
		os.Exit(3)
	}
	os.Exit(run(wd, os.Args[1:], os.Stdout, os.Stderr))
}

// diagKey identifies a finding for cross-package dedup: the same file can be
// analyzed in more than one compilation unit (a package and its test
// variant), and a finding is one finding no matter how many units surfaced
// it.
type diagKey struct {
	file     string
	line     int
	col      int
	analyzer string
	message  string
}

// siteKey identifies a //lint:allow comment for the staleness audit.
type siteKey struct {
	file     string
	line     int
	analyzer string
}

// run parses args, loads the module packages under dir matching the
// patterns, and analyzes them in one fact-sharing session, dependency order
// first. It returns the exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tebaldivet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifOut := fs.String("sarif", "", "write findings as SARIF 2.1.0 to `file`")
	staleAllow := fs.Bool("staleallow", false, "audit //lint:allow comments whose analyzer no longer fires")
	escapePoints := fs.Bool("escapepoints", false, "print the derived *core.Txn escape-point list and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "tebaldivet:", err)
		return 3
	}
	analyzers := tebaldivet.All()
	session := framework.NewSession()

	var fset *token.FileSet
	seen := map[diagKey]bool{}
	var diags []framework.Diagnostic
	sites := map[siteKey]token.Pos{}
	usedSites := map[siteKey]bool{}

	for _, p := range pkgs {
		fset = p.Fset
		if p.IllTyped {
			// Degrade, don't abort: report the broken package and analyze
			// the rest. Analyzers need complete type info, so the package
			// itself is skipped.
			fmt.Fprintf(stderr, "tebaldivet: skipping %s: %v\n", p.ImportPath, p.Err)
			continue
		}
		if p.Types == nil || p.Info == nil {
			continue
		}
		res, err := session.Run(p.Fset, p.Files, p.Types, p.Info, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "tebaldivet: %s: %v\n", p.ImportPath, err)
			return 3
		}
		if p.DepOnly {
			continue
		}
		for _, d := range res.Diags {
			pos := p.Fset.Position(d.Pos)
			k := diagKey{pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message}
			if seen[k] {
				continue
			}
			seen[k] = true
			diags = append(diags, d)
		}
		for _, s := range res.Allows {
			pos := p.Fset.Position(s.Pos)
			sites[siteKey{pos.Filename, pos.Line, s.Analyzer}] = s.Pos
		}
		for _, d := range res.Suppressed {
			// The allow that fired sits on the finding's line or the line
			// above it; both are live.
			pos := p.Fset.Position(d.Pos)
			usedSites[siteKey{pos.Filename, pos.Line, d.Analyzer}] = true
			usedSites[siteKey{pos.Filename, pos.Line - 1, d.Analyzer}] = true
		}
	}

	if *escapePoints {
		for _, name := range poolescape.EscapePoints(session.Facts()) {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}

	stale := 0
	if *staleAllow {
		var keys []siteKey
		for k := range sites {
			if !usedSites[k] {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].file != keys[j].file {
				return keys[i].file < keys[j].file
			}
			if keys[i].line != keys[j].line {
				return keys[i].line < keys[j].line
			}
			return keys[i].analyzer < keys[j].analyzer
		})
		for _, k := range keys {
			stale++
			fmt.Fprintf(stdout, "%s: stale suppression: //lint:allow %s no longer matches a finding\n",
				fset.Position(sites[k]), k.analyzer)
		}
	}

	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, sarif.Build(dir, fset, analyzers, diags)); err != nil {
			fmt.Fprintln(stderr, "tebaldivet:", err)
			return 3
		}
	}

	if len(diags) > 0 || stale > 0 {
		switch {
		case stale > 0 && len(diags) > 0:
			fmt.Fprintf(stderr, "tebaldivet: %d finding(s), %d stale suppression(s)\n", len(diags), stale)
		case stale > 0:
			fmt.Fprintf(stderr, "tebaldivet: %d stale suppression(s)\n", stale)
		default:
			fmt.Fprintf(stderr, "tebaldivet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

func writeSARIF(path string, log *sarif.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sarif.Write(f, log); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
