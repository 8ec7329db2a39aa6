package bench

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestTableIsWellFormed: ids are unique, and every experiment has a title
// and something to run — cases for the standard rendering and for go test
// -bench, or a custom Run.
func TestTableIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, x := range Experiments() {
		if x.ID == "" || seen[x.ID] {
			t.Errorf("experiment id %q is empty or repeated", x.ID)
		}
		seen[x.ID] = true
		if x.Title == "" {
			t.Errorf("%s: no title", x.ID)
		}
		if len(x.Cases) == 0 && x.Run == nil {
			t.Errorf("%s: neither cases nor a custom Run", x.ID)
		}
		for _, c := range x.Cases {
			if c.Label == "" || c.Open == nil {
				t.Errorf("%s: case %q has no label or no Open", x.ID, c.Label)
			}
		}
	}
}

// TestExperimentIndexMatchesTable: the rows of DESIGN.md's "Experiment
// index" are the table's ids, in the table's order. A new experiment means
// both change together.
func TestExperimentIndexMatchesTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, found := strings.Cut(string(doc), "\n## Experiment index\n")
	if !found {
		t.Fatal(`DESIGN.md has no "## Experiment index" section`)
	}
	index, _, _ = strings.Cut(index, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(index, -1) {
		documented = append(documented, m[1])
	}
	var ids []string
	for _, x := range Experiments() {
		ids = append(ids, x.ID)
	}
	if !reflect.DeepEqual(documented, ids) {
		t.Errorf("DESIGN.md's experiment index diverges from bench.Experiments\n index: %q\n table: %q", documented, ids)
	}
}
