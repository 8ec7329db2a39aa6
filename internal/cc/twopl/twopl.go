// Package twopl implements two-phase locking (§4.4.1), Tebaldi's most
// general CC mechanism.
//
// As a leaf, this is textbook strict 2PL: shared locks for reads, exclusive
// locks for writes, all held until commit/abort; deadlocks resolve by
// timeout.
//
// As a non-leaf it becomes the nexus-lock mechanism of Callas (§3.3.2):
// transactions delegated to the same child never conflict on a lock — their
// conflicts are the child's responsibility — and the Nexus Lock Release
// Order (release only after in-group dependencies commit) is enforced by the
// engine's consistent-ordering commit wait, since locks are released in the
// Commit phase which runs only after the transaction's recorded dependencies
// have committed.
package twopl

import (
	"sync"

	"repro/internal/core"
	"repro/internal/lockmgr"
)

// TwoPL is a two-phase locking CC node.
type TwoPL struct {
	env   *core.Env
	node  *core.Node
	locks *lockmgr.Table
	// recordReads: a mechanism below this node asked for a record of every
	// read served here (core.ReadRecordNeeder). False in every tree without
	// a nested TSO node, so their read path is untouched.
	recordReads bool
}

// slot is t's state at this node. Only t's goroutine reads it, but it stays
// in t.Slots for t's lifetime: an SSI or TSO node at the same depth on
// another branch type-asserts a foreign transaction's entry, so the entry
// is never rewritten after Begin. The held list it points at is what gets
// reused.
type slot struct {
	held *heldKeys
}

// heldKeys lists the keys a transaction holds here, one element per fresh
// grant. The lock table answers re-entrancy and upgrades, so no
// per-transaction map mirrors its ownership facts. Only the owner touches
// the list; releaseAll returns it to heldPool emptied, so the next
// transaction appends into the array an earlier one grew.
type heldKeys struct {
	keys []core.Key
}

var heldPool = sync.Pool{New: func() any { return new(heldKeys) }}

// New creates a 2PL mechanism for node. For non-leaf nodes the lock table
// exempts same-child pairs (nexus semantics).
func New(env *core.Env, node *core.Node) *TwoPL {
	p := &TwoPL{env: env, node: node}
	var exempt func(a, b *core.Txn) bool
	if len(node.Children) > 0 {
		exempt = node.SameChild
	}
	p.locks = lockmgr.New(env, exempt)
	for _, c := range node.Children {
		c.Walk(func(n *core.Node) {
			if _, ok := n.CC.(core.ReadRecordNeeder); ok {
				p.recordReads = true
			}
		})
	}
	return p
}

// Name implements core.CC.
func (p *TwoPL) Name() string { return "2PL" }

// DerivedFacts returns what New derived from the subtree: whether reads are
// recorded. An online update compares it with a fresh build's.
func (p *TwoPL) DerivedFacts() any { return p.recordReads }

// Begin implements core.CC. The held list is taken on the first lock
// acquisition, so transactions that never reach this node's lock table pay
// one slot allocation only.
func (p *TwoPL) Begin(t *core.Txn) error {
	t.Slots[p.node.Depth] = &slot{}
	return nil
}

func (p *TwoPL) slotOf(t *core.Txn) *slot {
	s, _ := t.Slots[p.node.Depth].(*slot)
	return s
}

func (p *TwoPL) acquire(t *core.Txn, k core.Key, m lockmgr.Mode) error {
	fresh, err := p.locks.Grant(t, k, m)
	if fresh {
		s := p.slotOf(t)
		if s.held == nil {
			s.held = heldPool.Get().(*heldKeys)
		}
		s.held.keys = append(s.held.keys, k)
	}
	return err
}

// PreRead implements core.CC: acquire a shared lock, held to commit.
func (p *TwoPL) PreRead(t *core.Txn, k core.Key) error {
	return p.acquire(t, k, lockmgr.Shared)
}

// PreWrite implements core.CC: acquire an exclusive lock, held to commit.
func (p *TwoPL) PreWrite(t *core.Txn, k core.Key) error {
	return p.acquire(t, k, lockmgr.Exclusive)
}

// AmendRead implements core.CC. 2PL accepts the child's proposal if it is an
// uncommitted value from the reader's own child subtree (delegated conflict);
// otherwise it returns the later of the proposal and the latest committed
// version written outside the reader's child — correct because the shared
// lock guarantees no conflicting non-exempt writer is active. Versions of the
// reader's own child stay the child's choice, committed or not: only the one
// it proposed may represent them (a multiversion child — TSO, SSI — may have
// ordered the reader BEFORE a same-child writer that has since committed, and
// handing the reader that writer's value would invert the child's order).
func (p *TwoPL) AmendRead(t *core.Txn, k core.Key, ch *core.Chain, proposal *core.Version) (*core.Version, error) {
	if p.recordReads {
		if rs := ch.Readers(); len(rs) == 0 || rs[len(rs)-1].T != t {
			t.MarkShared() // the chain's reader list retains the pointer
			ch.RecordReader(core.ReadRec{T: t}, p.env.Watermark)
		}
	}
	child := p.node.ChildFor(t) // nil at a leaf: nothing is delegated
	if proposal != nil && proposal.Pending() {
		if child != nil && child == p.node.ChildFor(proposal.Writer) {
			return proposal, nil
		}
		// A pending proposal from a non-same-child subtree cannot
		// exist under our lock; defensively fall back to committed.
		proposal = nil
	}
	best := proposal
	for _, v := range ch.Versions() {
		if v == proposal || !v.Committed() || (child != nil && child == p.node.ChildFor(v.Writer)) {
			continue
		}
		if best == nil || v.CommitTS() >= best.CommitTS() {
			best = v
		}
	}
	return best, nil
}

// PostWrite implements core.CC: record write-write ordering dependencies on
// pending same-child versions of the key (their writers must commit first;
// the exclusive lock already excludes non-exempt pending writers).
func (p *TwoPL) PostWrite(t *core.Txn, k core.Key, ch *core.Chain, v *core.Version) error {
	for _, old := range ch.Versions() {
		if old == v || old.Writer == t || !old.Pending() {
			continue
		}
		if p.node.InSubtree(old.Writer) {
			if err := t.AddDep(old.Writer, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// Validate implements core.CC: trivial for 2PL — holding all locks suffices.
func (p *TwoPL) Validate(t *core.Txn) error { return nil }

// Commit implements core.CC: release all locks. The engine has already
// waited for the transaction's dependency set (nexus release order).
func (p *TwoPL) Commit(t *core.Txn) { p.releaseAll(t) }

// Abort implements core.CC.
func (p *TwoPL) Abort(t *core.Txn) { p.releaseAll(t) }

func (p *TwoPL) releaseAll(t *core.Txn) {
	s := p.slotOf(t)
	if s == nil || s.held == nil {
		return
	}
	h := s.held
	s.held = nil
	p.locks.ReleaseAll(t, h.keys)
	clear(h.keys) // the pool must not keep key strings reachable
	h.keys = h.keys[:0]
	heldPool.Put(h)
}
