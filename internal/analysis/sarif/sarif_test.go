package sarif

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"

	"repro/internal/analysis/framework"
)

func TestBuildAndWrite(t *testing.T) {
	fset := token.NewFileSet()
	tf := fset.AddFile("/repo/internal/core/txn.go", -1, 1000)
	tf.SetLines([]int{0, 100, 200, 300})
	pos := tf.Pos(205) // line 3, column 6

	analyzers := []*framework.Analyzer{
		{Name: "poolescape", Doc: "escape checking"},
		{Name: "lockorder", Doc: "declared mutex order"},
	}
	diags := []framework.Diagnostic{
		{Analyzer: "poolescape", Pos: pos, Message: "escaped without MarkShared"},
	}

	log := Build("/repo", fset, analyzers, diags)
	if log.Version != "2.1.0" {
		t.Fatalf("version = %q", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "tebaldivet" {
		t.Fatalf("driver = %q", run.Tool.Driver.Name)
	}
	// Rules sorted by id.
	if len(run.Tool.Driver.Rules) != 2 ||
		run.Tool.Driver.Rules[0].ID != "lockorder" ||
		run.Tool.Driver.Rules[1].ID != "poolescape" {
		t.Fatalf("rules = %+v", run.Tool.Driver.Rules)
	}
	if len(run.Results) != 1 {
		t.Fatalf("results = %d", len(run.Results))
	}
	r := run.Results[0]
	if r.RuleID != "poolescape" || r.Level != "error" {
		t.Fatalf("result = %+v", r)
	}
	loc := r.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/core/txn.go" {
		t.Fatalf("uri = %q, want repo-relative slash path", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 3 || loc.Region.StartColumn != 6 {
		t.Fatalf("region = %+v", loc.Region)
	}

	// The document must round-trip as JSON with the SARIF field names.
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["$schema"] == nil || decoded["version"] != "2.1.0" {
		t.Fatalf("serialized keys wrong: %v", decoded)
	}
}

func TestBuildUnknownAnalyzerGetsRule(t *testing.T) {
	fset := token.NewFileSet()
	tf := fset.AddFile("x.go", -1, 10)
	tf.SetLines([]int{0})
	diags := []framework.Diagnostic{{Analyzer: "mystery", Pos: tf.Pos(1), Message: "m"}}
	log := Build("/elsewhere", fset, nil, diags)
	if len(log.Runs[0].Tool.Driver.Rules) != 1 || log.Runs[0].Tool.Driver.Rules[0].ID != "mystery" {
		t.Fatalf("rules = %+v", log.Runs[0].Tool.Driver.Rules)
	}
	// Paths outside root stay as given.
	if uri := log.Runs[0].Results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "x.go" {
		t.Fatalf("uri = %q", uri)
	}
}
