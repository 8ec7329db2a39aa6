// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver contract, shaped so the tebaldivet
// analyzers could be ported to the real framework verbatim if the module
// ever grows the x/tools dependency. The container this repo builds in has
// no module proxy access, so the framework — like everything else here — is
// stdlib only.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer minus requires; object facts are
// supported through the session FactStore (see facts.go).
type Analyzer struct {
	// Name is the check's identifier, used in output and in
	// //lint:allow suppressions.
	Name string
	// Doc is the one-paragraph description (the SARIF rule text).
	Doc string
	// Run performs the check on one package, reporting findings through
	// pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags   []Diagnostic
	facts   *FactStore
	factErr error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Report records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Result is the full outcome of analyzing one package: the surviving
// findings, the findings a valid //lint:allow dropped, and every allow site
// seen — the raw material of the stale-suppression audit.
type Result struct {
	// Diags are the unsuppressed findings, sorted by position.
	Diags []Diagnostic
	// Suppressed are the findings dropped by a justified allow.
	Suppressed []Diagnostic
	// Allows are the justified //lint:allow sites of the package, one per
	// analyzer name per comment.
	Allows []AllowSite
}

// Session runs analyzers over a sequence of packages sharing one fact
// store. Analyze dependencies before dependents (the driver topologically
// sorts) so interprocedural summaries are present when a caller's package is
// reached.
type Session struct {
	facts *FactStore
}

// NewSession returns a session with an empty fact store.
func NewSession() *Session { return &Session{facts: NewFactStore()} }

// Facts exposes the session's fact store (the driver derives the
// escape-point list from it).
func (s *Session) Facts() *FactStore { return s.facts }

// Run applies the analyzers to one package. Suppressed findings are
// separated, not dropped, and allow sites are reported so the driver can
// audit them. Analyzer errors are returned as-is.
func (s *Session) Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) (*Result, error) {
	sup := CollectSuppressions(fset, files)
	res := &Result{Allows: sup.Sites}
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, facts: s.facts}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		if pass.factErr != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, pass.factErr)
		}
		for _, d := range pass.diags {
			if sup.Allows(fset, a.Name, d.Pos) {
				res.Suppressed = append(res.Suppressed, d)
			} else {
				res.Diags = append(res.Diags, d)
			}
		}
	}
	sortDiags(fset, res.Diags)
	sortDiags(fset, res.Suppressed)
	return res, nil
}

func sortDiags(fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// AllowSite is one justified //lint:allow comment, per analyzer named.
type AllowSite struct {
	Analyzer string
	Pos      token.Pos
}

// Suppressions indexes the justified //lint:allow comments of a package.
// A finding is suppressed by a comment of the form
//
//	//lint:allow <analyzer> -- <justification>
//
// on the finding's line or the line directly above it. The justification
// is mandatory: a bare allow without a reason does not suppress.
type Suppressions struct {
	// lines maps file -> line -> analyzer names allowed on that line.
	lines map[string]map[int][]string
	// Sites lists every justified allow in file order.
	Sites []AllowSite
}

// CollectSuppressions scans the files' comments for //lint:allow markers.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) Suppressions {
	sup := Suppressions{lines: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:allow"))
				name, reason, ok := strings.Cut(rest, "--")
				if !ok || strings.TrimSpace(reason) == "" {
					continue // no justification: not a valid suppression
				}
				pos := fset.Position(c.Pos())
				m := sup.lines[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					sup.lines[pos.Filename] = m
				}
				for _, n := range strings.Fields(name) {
					m[pos.Line] = append(m[pos.Line], n)
					sup.Sites = append(sup.Sites, AllowSite{Analyzer: n, Pos: c.Pos()})
				}
			}
		}
	}
	return sup
}

// Allows reports whether analyzer name is suppressed at pos.
func (s Suppressions) Allows(fset *token.FileSet, name string, pos token.Pos) bool {
	p := fset.Position(pos)
	m := s.lines[p.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, n := range m[line] {
			if n == name {
				return true
			}
		}
	}
	return false
}
