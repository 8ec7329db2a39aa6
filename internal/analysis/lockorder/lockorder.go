// Package lockorder implements the tebaldivet analyzer that extracts the
// mutex-acquisition graph and checks it against a declared partial order.
//
// Composing CC mechanisms in one tree (the Tebaldi design) multiplies lock
// nesting across lockmgr shards, storage shards, WAL appenders, version
// chains and the engine's configuration gates; an undeclared A-then-B
// nesting today becomes a B-then-A deadlock two PRs later. The analyzer
// records every acquisition performed while another lock is held — both
// directly and through same-package helper calls (a bottom-up summary
// fixpoint) — and requires each observed edge to be covered by the declared
// partial order:
//
//	type lock struct {
//		// tebaldi:locks after lockmgr.shard.mu
//		mu sync.Mutex
//	}
//
// declares that this mutex may be acquired while shard.mu is held. A
// package-level comment `// tebaldi:locks order A < B` declares the same
// edge without touching the declaration (useful for cross-package locks).
// Undeclared edges, same-class nestings (two locks of one class, e.g. two
// version chains — the "must never take other chain locks" invariant), and
// cycles in the declared order itself are reported.
//
// Lock classes are named pkg.Type.field for mutex fields and pkg.Type for
// types that are themselves locks (core.Chain). The analysis is
// per-package: a cross-package nesting is observed from the package whose
// function performs the inner acquisition, and declared there.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/lockset"
	"repro/internal/analysis/ssa"
)

// Analyzer is the lockorder check.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc: "check nested mutex acquisitions against the declared " +
		"tebaldi:locks partial order and report undeclared edges and cycles",
	Run: run,
}

const directive = "tebaldi:locks"

// edge is one observed or declared acquisition order: to is acquired while
// from is held.
type edge struct{ from, to string }

func run(pass *framework.Pass) error {
	declared, declPos := declaredEdges(pass)

	// Cycles in the declared order are themselves errors: a declared cycle
	// legalizes a deadlock.
	if cyc := findCycle(declared); cyc != nil {
		pos := token.NoPos
		for _, e := range cyc {
			if p, ok := declPos[e]; ok {
				pos = p
				break
			}
		}
		if pos == token.NoPos && len(pass.Files) > 0 {
			pos = pass.Files[0].Pos()
		}
		var parts []string
		for _, e := range cyc {
			parts = append(parts, e.from+" < "+e.to)
		}
		pass.Reportf(pos, "declared lock order contains a cycle: %s", strings.Join(parts, ", "))
	}

	summaries := summarize(pass)

	observed := map[edge]token.Pos{}
	record := func(from, to string, pos token.Pos) {
		e := edge{from, to}
		if _, ok := observed[e]; !ok {
			observed[e] = pos
		}
	}
	for _, file := range pass.Files {
		for _, fn := range lockset.FunctionsOf(file) {
			lockset.Walk(pass.TypesInfo, fn.Body, lockset.Hooks{
				OnAcquire: func(c *lockset.Call, held []lockset.Held) {
					for _, h := range held {
						if h.Call.Key == c.Key {
							continue // reacquire of the same instance: unlockpath's turf
						}
						record(h.Call.Class, c.Class, c.Expr.Pos())
					}
				},
				OnCall: func(call *ast.CallExpr, held []lockset.Held) {
					if len(held) == 0 {
						return
					}
					callee := ssa.StaticCallee(pass.TypesInfo, call)
					if callee == nil {
						return
					}
					sum := summaries[callee]
					if len(sum) == 0 {
						return
					}
					for _, h := range held {
						for class := range sum {
							record(h.Call.Class, class, call.Pos())
						}
					}
				},
			})
		}
	}

	// Check observed edges against the declared partial order.
	edges := make([]edge, 0, len(observed))
	for e := range observed {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return observed[edges[i]] < observed[edges[j]] })
	for _, e := range edges {
		if e.from == e.to {
			if !declared[e] {
				pass.Reportf(observed[e],
					"acquiring a second %s lock while one is already held: same-class nesting deadlocks unless instance-ordered; declare `// tebaldi:locks order %s < %s` only with such an order",
					e.from, e.from, e.to)
			}
			continue
		}
		if !reachable(declared, e.from, e.to) {
			fix := fmt.Sprintf("declare `// tebaldi:locks after %s` on the %s declaration", e.from, e.to)
			if reachable(declared, e.to, e.from) {
				fix = fmt.Sprintf("the declared order has %s before %s — this nesting inverts it", e.to, e.from)
			}
			pass.Reportf(observed[e],
				"acquiring %s while holding %s: edge is not in the declared lock order; %s, or fix the nesting",
				e.to, e.from, fix)
		}
	}
	return nil
}

// declaredEdges parses the package's tebaldi:locks annotations.
func declaredEdges(pass *framework.Pass) (map[edge]bool, map[edge]token.Pos) {
	edges := map[edge]bool{}
	pos := map[edge]token.Pos{}
	add := func(from, to string, p token.Pos) {
		e := edge{from, to}
		edges[e] = true
		if _, ok := pos[e]; !ok {
			pos[e] = p
		}
	}
	pkgName := pass.Pkg.Name()

	// Field- and type-attached `tebaldi:locks after X [Y...]`.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			typeClass := pkgName + "." + ts.Name.Name
			for _, afters := range annotations(ts.Doc, ts.Comment) {
				for _, from := range afters.classes {
					add(from, typeClass, afters.pos)
				}
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				for _, afters := range annotations(f.Doc, f.Comment) {
					names := f.Names
					if len(names) == 0 {
						// embedded field (e.g. sync.RWMutex): the lock
						// class is the embedding type itself, matching
						// classOf for x.Lock() calls.
						for _, from := range afters.classes {
							add(from, typeClass, afters.pos)
						}
						continue
					}
					for _, name := range names {
						for _, from := range afters.classes {
							add(from, typeClass+"."+name.Name, afters.pos)
						}
					}
				}
			}
			return true
		})
	}

	// Package-level `tebaldi:locks order A < B [< C...]`.
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, directive+" order ") {
					continue
				}
				chain := strings.Split(strings.TrimPrefix(text, directive+" order "), "<")
				for i := 0; i+1 < len(chain); i++ {
					from := strings.TrimSpace(chain[i])
					to := strings.TrimSpace(chain[i+1])
					if from != "" && to != "" {
						add(from, to, c.Pos())
					}
				}
			}
		}
	}
	return edges, pos
}

type annotation struct {
	classes []string
	pos     token.Pos
}

// annotations extracts `tebaldi:locks after A [B...]` from comment groups.
func annotations(groups ...*ast.CommentGroup) []annotation {
	var out []annotation
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, directive+" after ") {
				continue
			}
			rest := strings.TrimPrefix(text, directive+" after ")
			var classes []string
			for _, f := range strings.Fields(rest) {
				classes = append(classes, strings.TrimSuffix(f, ","))
			}
			if len(classes) > 0 {
				out = append(out, annotation{classes: classes, pos: c.Pos()})
			}
		}
	}
	return out
}

// summarize computes, for every function declared in this package, the set
// of lock classes its body may acquire — directly or through same-package
// callees (bottom-up fixpoint). Function literals are excluded: they
// usually run on other goroutines, where "nested" does not mean "held".
func summarize(pass *framework.Pass) map[*types.Func]map[string]bool {
	direct := map[*types.Func]map[string]bool{}
	calls := map[*types.Func]map[*types.Func]bool{}
	var fns []*types.Func

	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, obj)
			acq := map[string]bool{}
			callees := map[*types.Func]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if c, ok := lockset.Classify(pass.TypesInfo, call); ok {
					if c.Op != lockset.ReleaseOp {
						acq[c.Class] = true
					}
					return true
				}
				if callee := ssa.StaticCallee(pass.TypesInfo, call); callee != nil {
					callees[callee] = true
				}
				return true
			})
			direct[obj] = acq
			calls[obj] = callees
		}
	}

	// Fixpoint propagation.
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			for callee := range calls[f] {
				for class := range direct[callee] {
					if !direct[f][class] {
						direct[f][class] = true
						changed = true
					}
				}
			}
		}
	}
	return direct
}

// reachable reports whether from reaches to in the declared edge graph.
func reachable(edges map[edge]bool, from, to string) bool {
	seen := map[string]bool{}
	var dfs func(n string) bool
	dfs = func(n string) bool {
		if n == to {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for e := range edges {
			if e.from == n && dfs(e.to) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

// findCycle returns the edges of one cycle in the declared graph, or nil.
func findCycle(edges map[edge]bool) []edge {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	for _, vs := range adj {
		sort.Strings(vs)
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	var cycle []edge
	var dfs func(n string) bool
	dfs = func(n string) bool {
		color[n] = gray
		stack = append(stack, n)
		for _, m := range adj[n] {
			if color[m] == gray {
				// unwind stack from m to n
				start := 0
				for i, s := range stack {
					if s == m {
						start = i
						break
					}
				}
				for i := start; i+1 < len(stack); i++ {
					cycle = append(cycle, edge{stack[i], stack[i+1]})
				}
				cycle = append(cycle, edge{n, m})
				return true
			}
			if color[m] == white && dfs(m) {
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return false
	}
	for _, n := range order {
		if color[n] == white && dfs(n) {
			return cycle
		}
	}
	return nil
}
