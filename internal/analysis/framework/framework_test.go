package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const supSrc = `package p

func f() {
	//lint:allow poolescape -- the pointer is never recycled
	g()
	//lint:allow poolescape
	g()
	h() //lint:allow lockorder unlockpath -- instance-ordered by shard index
}

func g() {}
func h() {}
`

// posAt returns a Pos on the given 1-based line of the parsed file.
func posAt(fset *token.FileSet, line int) token.Pos {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return pos
}

func TestSuppressions(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", supSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := CollectSuppressions(fset, []*ast.File{f})

	// Line 5: g() under a justified allow on line 4.
	if !sup.Allows(fset, "poolescape", posAt(fset, 5)) {
		t.Error("justified line-above allow must suppress poolescape on line 5")
	}
	// Line 7: g() under a bare allow with no justification — not valid.
	if sup.Allows(fset, "poolescape", posAt(fset, 7)) {
		t.Error("an allow without a -- justification must not suppress")
	}
	// Line 8: same-line allow naming two analyzers.
	for _, name := range []string{"lockorder", "unlockpath"} {
		if !sup.Allows(fset, name, posAt(fset, 8)) {
			t.Errorf("same-line allow must suppress %s on line 8", name)
		}
	}
	// The allow names are exact: other analyzers stay unsuppressed.
	if sup.Allows(fset, "poolescape", posAt(fset, 8)) {
		t.Error("allow must only suppress the named analyzers")
	}
}
