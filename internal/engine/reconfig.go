package engine

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Protocol selects a reconfiguration protocol (§5.5).
type Protocol int

const (
	// PartialRestart quiesces the whole database, rebuilds the entire
	// concurrency-control module (fresh CC instances over the untouched
	// storage module), and resumes (§5.5.1). The three phases — clean-up,
	// prepare, apply — map to: gate + drain, buildTree, swap + reopen.
	PartialRestart Protocol = iota
	// OnlineUpdate replaces only the changed subtree of the CC tree,
	// quiescing only the transaction types routed through it (§5.5.2).
	// If the change reaches the root, it degrades to PartialRestart.
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
// protocol. Transactions of gated types are buffered (their Begin blocks)
// for the duration; ongoing transactions are drained, then force-aborted
// after twice Options.LockTimeout.
func (e *Engine) Reconfigure(spec *NodeSpec, protocol Protocol) error {
	e.treeMu.Lock()
	defer e.treeMu.Unlock()

	if protocol == OnlineUpdate {
		if done, err := e.tryOnlineUpdate(spec); done || err != nil {
			return err
		}
		// Root-level change: fall through to a partial restart.
	}
	return e.partialRestart(spec)
}

// partialRestart implements the clean-up / prepare / apply phases of
// §5.5.1. The prepare step (building the new CC module) happens before the
// gate closes to shorten the pause; CC instances hold no storage state, so
// early construction is safe.
func (e *Engine) partialRestart(spec *NodeSpec) error {
	newTree, err := e.buildTree(spec)
	if err != nil {
		return err
	}
	// Clean-up phase: stop admitting transactions, drain ongoing ones.
	e.gate.Lock()
	defer e.gate.Unlock()
	if err := e.drain(nil); err != nil {
		return err
	}
	// Apply phase: swap the concurrency control module. The storage
	// module (all committed versions) is untouched; the new tree treats
	// existing data as committed history, exactly as the recovery
	// protocol's virtual root-level load (§4.5.4).
	e.tree = newTree
	e.refreshSnapSources(newTree)
	return nil
}

// tryOnlineUpdate performs the online update protocol if the configuration
// change is confined to a proper subtree. It reports done=false when the
// change is at the root (caller falls back to partial restart).
func (e *Engine) tryOnlineUpdate(spec *NodeSpec) (done bool, err error) {
	e.gate.RLock()
	oldSpec := e.tree.Spec
	e.gate.RUnlock()

	path, equal := diffSpec(oldSpec, spec)
	if equal {
		return true, nil // nothing to do
	}
	if len(path) == 0 {
		return false, nil // root-level change
	}

	// The affected transaction types: everything routed through the old
	// or new version of the changed subtree.
	oldSub, newSub := oldSpec, spec.Clone()
	for _, idx := range path {
		oldSub = oldSub.Children[idx]
	}
	newSubSpec := newSub
	for _, idx := range path {
		newSubSpec = newSubSpec.Children[idx]
	}
	affected := map[string]bool{}
	for _, t := range append(oldSub.AllTypes(), newSubSpec.AllTypes()...) {
		affected[t] = true
	}

	// Gate only the affected types; unaffected transactions keep running.
	e.gate.Lock()
	e.gate.blockedTypes = affected
	e.gate.Unlock()
	reopen := func() {
		e.gate.Lock()
		e.gate.blockedTypes = nil
		close(e.gate.reopen)
		e.gate.reopen = make(chan struct{})
		e.gate.Unlock()
	}
	if err := e.drain(func(t *core.Txn) bool { return affected[t.Type] }); err != nil {
		reopen()
		return true, err
	}

	// Splice the replacement subtree under a brief full admission pause
	// (routing tables are only read at Begin; active unaffected
	// transactions never consult them again).
	e.gate.Lock()
	parent := e.tree.Root
	for _, idx := range path[:len(path)-1] {
		if idx >= len(parent.Children) {
			e.gate.Unlock()
			reopen()
			return true, fmt.Errorf("engine: online update path out of range")
		}
		parent = parent.Children[idx]
	}
	idx := path[len(path)-1]
	if idx >= len(parent.Children) {
		e.gate.Unlock()
		reopen()
		return true, fmt.Errorf("engine: online update path out of range")
	}
	newNode, err := e.buildSubtree(newSubSpec, parent.Depth+1, parent)
	if err != nil {
		e.gate.Unlock()
		reopen()
		return true, err
	}
	parent.Children[idx] = newNode
	e.tree.Root.FinalizeRouting()
	e.tree.Spec = newSub
	e.refreshSnapSources(e.tree)
	e.gate.blockedTypes = nil
	close(e.gate.reopen)
	e.gate.reopen = make(chan struct{})
	e.gate.Unlock()
	return true, nil
}

// drain waits for matching active transactions to finish, force-aborting
// stragglers after twice LockTimeout. With filter nil (full quiesce) the
// caller holds gate.Lock; an online update drains outside it, so unaffected
// types keep being admitted.
func (e *Engine) drain(filter func(*core.Txn) bool) error {
	timeout := 2 * e.opts.LockTimeout
	deadline := time.Now().Add(timeout)
	for e.activeCount(filter) > 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Force-abort stragglers (§5.5.1's optional force-abort): mark them
	// aborted; their owner goroutines perform the cleanup.
	e.forEachActive(func(t *core.Txn) {
		if filter == nil || filter(t) {
			t.MarkAborted()
		}
	})
	// Wait for owner-side cleanup, bounded by waits' own timeouts.
	final := time.Now().Add(timeout + e.opts.LockTimeout)
	for e.activeCount(filter) > 0 {
		if time.Now().After(final) {
			return fmt.Errorf("engine: reconfiguration drain timed out with %d active transactions",
				e.activeCount(filter))
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// diffSpec compares two configurations. It returns equal=true when
// identical; otherwise path is the child-index path from the root to the
// single changed subtree (nil path = the root itself changed, or changes
// span multiple children).
func diffSpec(a, b *NodeSpec) (path []int, equal bool) {
	if a.Kind != b.Kind || a.ByInstance != b.ByInstance || a.Clones != b.Clones ||
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
		if changed >= 0 {
			// Multiple changed children: treat the change as here.
			return nil, false
		}
		changed, sub = i, p
	}
	if changed < 0 {
		return nil, true
	}
	return append([]int{changed}, sub...), false
}
