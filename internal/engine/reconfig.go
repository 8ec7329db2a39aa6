package engine

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
)

// Protocol selects a reconfiguration protocol (§5.5).
type Protocol int

const (
	// PartialRestart quiesces the whole database and rebuilds the entire
	// concurrency-control module (fresh CC instances over the untouched
	// storage module), even when the configuration is unchanged (§5.5.1).
	PartialRestart Protocol = iota
	// OnlineUpdate replaces only the changed subtree of the CC tree,
	// quiescing only the transaction types routed through it (§5.5.2).
	// A change at the root replaces the root, as PartialRestart does.
	OnlineUpdate
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == OnlineUpdate {
		return "online-update"
	}
	return "partial-restart"
}

// Reconfigure switches the live MCC configuration to spec using the given
// protocol. Both protocols are one procedure over one subtree — the root for
// PartialRestart, the changed subtree for OnlineUpdate (widened to any
// ancestor whose build-time facts change with it) — in §5.5's three
// phases: prepare builds the replacement, clean-up gates the subtree's
// transaction types (their Begin blocks) and waits for their active
// transactions to finish, and apply splices the replacement in. If the wait
// outlasts the drain bound, Reconfigure reopens the gate and returns an
// error, and the tree is unchanged: no transaction is aborted.
func (e *Engine) Reconfigure(spec *NodeSpec, protocol Protocol) error {
	e.treeMu.Lock()
	defer e.treeMu.Unlock()

	// Only Reconfigure writes the tree, and it holds treeMu: the tree read
	// here cannot change until it returns.
	spec = spec.Clone()
	path, equal := diffSpec(e.tree.Spec, spec)
	switch {
	case protocol == PartialRestart:
		path = nil
	case equal:
		return nil
	}
	path, err := e.widen(path, spec)
	if err != nil {
		return err
	}
	var parent *core.Node
	node, oldSub, newSub := e.tree.Root, e.tree.Spec, spec
	for _, i := range path {
		parent = node
		node, oldSub, newSub = node.Children[i], oldSub.Children[i], newSub.Children[i]
	}

	// Prepare: CC instances hold no storage state, so the replacement is
	// built before the gate closes, shortening the pause.
	repl, err := e.buildSubtree(newSub, node.Depth, parent)
	if err != nil {
		return err
	}

	// Clean-up: stop admitting the types routed through the old or the new
	// subtree — every placed type, for the root — and drain them; the
	// other types keep running.
	gated := map[string]bool{}
	for _, typ := range append(oldSub.AllTypes(), newSub.AllTypes()...) {
		gated[typ] = true
	}
	e.gate.Lock()
	e.gate.blockedTypes = gated
	e.gate.Unlock()
	err = e.drain(gated)

	// Apply, under a brief full admission pause: routing is read only at
	// Begin, and active transactions of other types never route again. The
	// storage module is untouched; the new subtree treats existing data as
	// committed history, as recovery's virtual root-level load does (§4.5.4).
	e.gate.Lock()
	if err == nil {
		if parent == nil {
			e.tree.Root = repl
		} else {
			parent.Children[path[len(path)-1]] = repl
		}
		e.tree.Root.FinalizeRouting()
		e.tree.Spec = spec
		e.refreshSnapSources(e.tree)
	}
	e.gate.blockedTypes = nil
	close(e.gate.reopen)
	e.gate.reopen = make(chan struct{})
	e.gate.Unlock()
	return err
}

// deriver is implemented by a CC mechanism that derives facts from its
// subtree when it is built (2PL's read records, SSI's optimized mode, RP's
// static analysis) and keeps them for its lifetime.
type deriver interface {
	DerivedFacts() any
}

// widen shortens path, the route to the changed subtree, to the highest
// ancestor whose CC, built fresh over spec, derives different facts than the
// live one; that ancestor is replaced too. A live CC's facts are never
// flipped: its running transactions of other types did not leave what the
// new fact needs (read records, for one).
func (e *Engine) widen(path []int, spec *NodeSpec) ([]int, error) {
	if len(path) == 0 {
		return path, nil
	}
	fresh, err := e.buildSubtree(spec, 0, nil)
	if err != nil {
		return nil, err
	}
	live := e.tree.Root
	for i, child := range path {
		ld, ok := live.CC.(deriver)
		if ok && !reflect.DeepEqual(ld.DerivedFacts(), fresh.CC.(deriver).DerivedFacts()) {
			return path[:i], nil
		}
		live, fresh = live.Children[child], fresh.Children[child]
	}
	return path, nil
}

// drain waits until no active transaction has one of the gated types, for at
// most twice LockTimeout: a waiting transaction's own wait times out within
// one, and the second leaves room for its last operations. It only waits —
// a transaction is ended only by its own goroutine.
func (e *Engine) drain(gated map[string]bool) error {
	deadline := time.Now().Add(2 * e.opts.LockTimeout)
	for {
		n := e.activeCount(gated)
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: reconfiguration drain timed out with %d active transactions; configuration unchanged", n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// diffSpec compares two configurations. It returns equal=true when
// identical; otherwise path is the child-index path from the root to the
// single changed subtree (nil path = the root itself changed, or changes
// span multiple children). It does not descend into the template of a
// node that clones it: the node stands for every clone, so a change inside
// the template is a change of that node.
func diffSpec(a, b *NodeSpec) (path []int, equal bool) {
	if a.Kind != b.Kind || a.Clones != b.Clones ||
		len(a.Types) != len(b.Types) || len(a.Children) != len(b.Children) {
		return nil, false
	}
	for i := range a.Types {
		if a.Types[i] != b.Types[i] {
			return nil, false
		}
	}
	changed := -1
	var sub []int
	for i := range a.Children {
		p, eq := diffSpec(a.Children[i], b.Children[i])
		if eq {
			continue
		}
		if changed >= 0 || a.Clones > 0 {
			// Multiple changed children, or a changed template: treat
			// the change as here.
			return nil, false
		}
		changed, sub = i, p
	}
	if changed < 0 {
		return nil, true
	}
	return append([]int{changed}, sub...), false
}
