package poolescape

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/load"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, Analyzer, "poolescape_a")
}

// TestEscapePointsMatchDocumentation is the acceptance check from the PR:
// the machine-derived escape-point set over the real repository must exactly
// equal the list documented in internal/core/txn.go's reclamation-rule
// comment. A new MarkShared caller means both this list and that comment
// must change together.
func TestEscapePointsMatchDocumentation(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	_, thisFile, _, _ := runtime.Caller(0)
	root := filepath.Join(filepath.Dir(thisFile), "..", "..", "..")

	pkgs, err := load.Packages(root, "./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	session := framework.NewSession()
	for _, pkg := range pkgs {
		if pkg.IllTyped || pkg.Types == nil {
			t.Fatalf("ill-typed package %s: %v", pkg.ImportPath, pkg.Err)
		}
		if _, err := session.Run(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, []*framework.Analyzer{Analyzer}); err != nil {
			t.Fatalf("analyzing %s: %v", pkg.ImportPath, err)
		}
	}

	got := EscapePoints(session.Facts())
	want := []string{
		"(*repro/internal/cc/twopl.TwoPL).AmendRead",
		"(*repro/internal/core.Chain).InstallPromise",
		"(*repro/internal/core.Chain).RecordReader",
		"(*repro/internal/core.Txn).AddDep",
		"(*repro/internal/core.Txn).AddWrite",
		"(*repro/internal/engine.Engine).loadVersion",
		"(*repro/internal/lockmgr.Table).Grant",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("derived escape points diverge from the documented list\n got: %q\nwant: %q", got, want)
	}
}
