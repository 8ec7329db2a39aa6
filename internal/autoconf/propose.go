package autoconf

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/profiler"
)

// Propose generates candidate configurations that optimize the bottleneck
// conflict edge, following the three adjustment strategies of §5.4.1 — all
// of which keep the change as local as possible to the bottleneck:
//
//   - Case 1 (Fig 5.7), T conflicts with itself: split T's leaf, giving T a
//     new leaf under a better-suited CC, with the original CC promoted to a
//     non-leaf regulating T against its former groupmates. When T's spec
//     declares an instance domain, a partition-by-instance candidate (one
//     CC instance per partition under a 2PL cross-group, §5.4.2) is added.
//   - Case 2 (Fig 5.8), T1 and T2 share a leaf: give each its own subgroup
//     and insert a new cross-group CC for exactly their conflicts.
//   - Case 3 (Fig 5.9), T1 and T2 in different groups: restructure under
//     their lowest common ancestor, pairing the two types under a new
//     cross-group CC.
//
// CC-specific filters (§5.4.1) remove candidates unlikely to perform:
// batched SSI is only proposed when one side of the edge is read-only, and
// mechanisms not designed for contention are not proposed as in-group
// optimizers. CC-specific preprocessing (§5.4.2) — RP's static analysis,
// TSO's promises — runs automatically when the engine builds the tree.
func Propose(cfg *engine.NodeSpec, edge profiler.Edge, e *engine.Engine) []Candidate {
	if edge.A == edge.B {
		return proposeSelf(cfg, edge.A, e.Spec(edge.A), e.Spec)
	}
	return proposePair(cfg, edge.A, edge.B, e.Spec(edge.A), e.Spec(edge.B))
}

// inGroupKinds are the mechanisms proposed to regulate a single hot type's
// self-conflicts (filter: designed for heavy contention).
var inGroupKinds = []engine.Kind{engine.KindRP, engine.KindTSO}

// crossKinds are the mechanisms proposed as new cross-group regulators.
var crossKinds = []engine.Kind{engine.Kind2PL, engine.KindRP, engine.KindTSO}

// findLeaf returns the child-index path to the node holding typ among its
// Types, or ok=false.
func findLeaf(cfg *engine.NodeSpec, typ string) (path []int, ok bool) {
	for _, t := range cfg.Types {
		if t == typ {
			return nil, true
		}
	}
	for i, c := range cfg.Children {
		if p, ok := findLeaf(c, typ); ok {
			return append([]int{i}, p...), true
		}
	}
	return nil, false
}

func nodeAt(cfg *engine.NodeSpec, path []int) *engine.NodeSpec {
	n := cfg
	for _, i := range path {
		n = n.Children[i]
	}
	return n
}

func removeType(n *engine.NodeSpec, typ string) {
	out := n.Types[:0]
	for _, t := range n.Types {
		if t != typ {
			out = append(out, t)
		}
	}
	n.Types = out
}

// proposeSelf handles Case 1: the bottleneck is contention among instances
// of one type.
func proposeSelf(cfg *engine.NodeSpec, typ string, spec *core.Spec, specOf func(string) *core.Spec) []Candidate {
	path, ok := findLeaf(cfg, typ)
	if !ok || spec.ReadOnly {
		return nil
	}
	var out []Candidate
	for _, kind := range inGroupKinds {
		c := cfg.Clone()
		leaf := nodeAt(c, path)
		if kind == leaf.Kind && len(leaf.Types) == 1 && len(leaf.Children) == 0 {
			continue // already exactly this
		}
		splitLeaf(leaf, typ, &engine.NodeSpec{Kind: kind, Types: []string{typ}})
		out = append(out, Candidate{Config: c, Desc: fmt.Sprintf("%s -> %s group", typ, kind)})
	}
	// Partition-by-instance (§5.4.2): one TSO instance per declared
	// partition, 2PL across instances. Every type from the same leaf that
	// declares the same instance domain joins the partitioned group —
	// their conflicts partition identically (e.g. all SEATS reservation
	// transactions, Figure 5.16).
	if spec.InstanceDomain > 1 {
		c := cfg.Clone()
		leaf := nodeAt(c, path)
		group := []string{typ}
		for _, other := range leaf.Types {
			if other == typ {
				continue
			}
			if specOf(other).InstanceDomain == spec.InstanceDomain {
				group = append(group, other)
			}
		}
		pbi := &engine.NodeSpec{
			Kind:     engine.Kind2PL,
			Clones:   spec.InstanceDomain,
			Children: []*engine.NodeSpec{{Kind: engine.KindTSO, Types: group}},
		}
		for _, g := range group {
			removeType(leaf, g)
		}
		if len(leaf.Types) == 0 && len(leaf.Children) == 0 {
			*leaf = *pbi
		} else {
			leaf.Children = append(leaf.Children, pbi)
		}
		out = append(out, Candidate{Config: c,
			Desc: fmt.Sprintf("%s -> per-instance TSO x%d", strings.Join(group, "+"), spec.InstanceDomain)})
	}
	return out
}

// splitLeaf rewrites leaf so that typ lives in newSub while all other
// responsibilities stay under the original mechanism, which becomes the
// local cross-group regulator (Fig 5.7).
func splitLeaf(leaf *engine.NodeSpec, typ string, newSub *engine.NodeSpec) {
	removeType(leaf, typ)
	if len(leaf.Types) == 0 && len(leaf.Children) == 0 {
		// The leaf held only typ: substitute in place.
		*leaf = *newSub
		return
	}
	leaf.Children = append(leaf.Children, newSub)
}

// proposePair handles Cases 2 and 3: contention between two types.
func proposePair(cfg *engine.NodeSpec, a, b string, specA, specB *core.Spec) []Candidate {
	pa, okA := findLeaf(cfg, a)
	pb, okB := findLeaf(cfg, b)
	if !okA || !okB {
		return nil
	}
	var out []Candidate

	// Filter: SSI cross-group is proposed only when one side is
	// read-only (batched SSI over two update groups rarely wins and the
	// read-only split needs no batching).
	kinds := append([]engine.Kind(nil), crossKinds...)
	if specA.ReadOnly != specB.ReadOnly {
		kinds = append([]engine.Kind{engine.KindSSI}, kinds...)
	}

	samePath := len(pa) == len(pb)
	if samePath {
		for i := range pa {
			if pa[i] != pb[i] {
				samePath = false
				break
			}
		}
	}

	for _, kind := range kinds {
		c := cfg.Clone()
		la, lb := nodeAt(c, pa), nodeAt(c, pb)
		kindA, kindB := la.Kind, lb.Kind
		if specA.ReadOnly {
			kindA = engine.KindNone
		}
		if specB.ReadOnly {
			kindB = engine.KindNone
		}
		pair := &engine.NodeSpec{
			Kind: kind,
			Children: []*engine.NodeSpec{
				{Kind: kindA, Types: []string{a}},
				{Kind: kindB, Types: []string{b}},
			},
		}
		if samePath {
			// Case 2: both types share a leaf — the original CC
			// regulates the pair subtree against the remaining
			// types (Fig 5.8).
			leaf := nodeAt(c, pa)
			removeType(leaf, a)
			removeType(leaf, b)
			if len(leaf.Types) == 0 && len(leaf.Children) == 0 {
				*leaf = *pair
			} else {
				leaf.Children = append(leaf.Children, pair)
			}
		} else {
			// Case 3: different groups — restructure beneath the
			// LCA (Fig 5.9b): the pair subtree becomes a new child
			// of the LCA, the types leave their old leaves.
			lca := 0
			for lca < len(pa) && lca < len(pb) && pa[lca] == pb[lca] {
				lca++
			}
			removeType(la, a)
			removeType(lb, b)
			anchor := nodeAt(c, pa[:lca])
			anchor.Children = append(anchor.Children, pair)
			pruneEmpty(c)
		}
		out = append(out, Candidate{Config: c, Desc: fmt.Sprintf("%s|%s under %s", a, b, kind)})
	}

	// Also try simply merging the two types into one aggressive leaf
	// (sometimes in-group RP beats any cross-group split, §4.6.1).
	if !specA.ReadOnly && !specB.ReadOnly && samePath {
		c := cfg.Clone()
		leaf := nodeAt(c, pa)
		removeType(leaf, a)
		removeType(leaf, b)
		merged := &engine.NodeSpec{Kind: engine.KindRP, Types: []string{a, b}}
		if len(leaf.Types) == 0 && len(leaf.Children) == 0 {
			*leaf = *merged
		} else {
			leaf.Children = append(leaf.Children, merged)
		}
		out = append(out, Candidate{Config: c, Desc: fmt.Sprintf("%s+%s merged RP", a, b)})
	}
	return out
}

// pruneEmpty removes childless, typeless subtrees left behind by moves.
func pruneEmpty(n *engine.NodeSpec) bool {
	kept := n.Children[:0]
	for _, c := range n.Children {
		if pruneEmpty(c) {
			kept = append(kept, c)
		}
	}
	n.Children = kept
	return len(n.Types) > 0 || len(n.Children) > 0
}
