package rp

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lockmgr"
)

// RP is a Runtime Pipelining CC node. As a leaf it pipelines all
// transactions of its group; as a non-leaf it pipelines across child
// subtrees while exempting same-child pairs (the child regulates those).
type RP struct {
	env      *core.Env
	node     *core.Node
	locks    *lockmgr.Table
	analysis *Analysis
}

// slot is the per-transaction pipeline state. Other transactions read cur
// and park on wake, also after t has ended, so the slot is t's own for its
// lifetime. Every CC call of a transaction runs on its owner goroutine, so
// own is the owner's alone.
type slot struct {
	cur atomic.Int32 // current step
	mu  sync.Mutex   // guards wake, and orders cur's store against its making
	// wake fires on every advance; a transaction nobody waits on never
	// makes its channel.
	wake core.Wake
	// own is taken from ownPool at Begin and returned at finish.
	own *stepBufs
}

// stepBufs are a transaction's owner-only lists for its current step. They
// are reused: finish returns them emptied to ownPool, and a step advance
// truncates them in place, so a transaction appends into arrays an earlier
// one grew.
type stepBufs struct {
	// held lists the current step's locks, one element per fresh grant.
	held []core.Key
	// written tracks versions installed in the current (not yet
	// step-committed) step.
	written []*core.Version
}

var ownPool = sync.Pool{New: func() any { return new(stepBufs) }}

// step returns the transaction's current pipeline step.
func (s *slot) step() int { return int(s.cur.Load()) }

// exposeWrites marks the current step's writes step-committed. Must run
// BEFORE the step's locks are released, or a successor could acquire the
// lock and miss the write.
func (s *slot) exposeWrites() {
	b := s.own
	for _, v := range b.written {
		v.MarkStepCommitted()
	}
	clear(b.written)
	b.written = b.written[:0]
}

// advanceTo publishes t's new step and wakes entry waiters.
func (s *slot) advanceTo(t *core.Txn, r int) {
	s.exposeWrites()
	s.mu.Lock()
	s.cur.Store(int32(r))
	s.wake.Fire(t)
	s.mu.Unlock()
}

// waitCh returns the channel the next advance closes. The caller re-checks
// step() after taking it: an advance either saw the channel or stored the
// step first.
func (s *slot) waitCh() <-chan struct{} {
	s.mu.Lock()
	ch := s.wake.Chan()
	s.mu.Unlock()
	return ch
}

// New creates a Runtime Pipelining mechanism for node, running its static
// analysis over the access orders of the transaction types in node's
// subtree.
func New(env *core.Env, node *core.Node) *RP {
	var orders [][]string
	for _, typ := range node.SubtreeTypes() {
		orders = append(orders, env.Specs[typ].Tables)
	}
	var exempt func(a, b *core.Txn) bool
	if len(node.Children) > 0 {
		exempt = node.SameChild
	}
	return &RP{
		env:      env,
		node:     node,
		locks:    lockmgr.New(env, exempt),
		analysis: Analyze(orders),
	}
}

// Name implements core.CC.
func (r *RP) Name() string { return "RP" }

// DerivedFacts returns what New derived from the subtree: the static
// analysis of its types. An online update compares it with a fresh build's.
func (r *RP) DerivedFacts() any { return r.analysis }

// Begin implements core.CC.
func (r *RP) Begin(t *core.Txn) error {
	t.Slots[r.node.Depth] = &slot{own: ownPool.Get().(*stepBufs)}
	return nil
}

func (r *RP) slotOf(t *core.Txn) *slot {
	s, _ := t.Slots[r.node.Depth].(*slot)
	return s
}

// enterStep advances t's pipeline to the step of table tbl: it step-commits
// completed steps (exposing their writes, releasing their locks) and then
// waits for every pipeline predecessor to have finished executing the target
// step (§4.4.2).
func (r *RP) enterStep(t *core.Txn, tbl string) error {
	target, ok := r.analysis.Rank[tbl]
	if !ok {
		// Table unknown to the static analysis (type registered
		// without it): treat as the current step.
		return nil
	}
	s := r.slotOf(t)
	if target < s.step() {
		// The static analysis guarantees monotone ranks when the
		// transaction follows its declared access order; a violation
		// means the spec lied. Abort rather than risk isolation.
		return core.ErrConflict
	}
	if target > s.step() {
		// Step-commit everything below target: expose writes first,
		// then release step locks so successors may proceed. Steps only
		// advance, so every held lock belongs to a step below target.
		s.exposeWrites()
		r.releaseHeld(t, s)
		s.advanceTo(t, target)
	}

	// Pipeline ordering: every in-subtree dependency must have finished
	// executing this step (advanced past it or terminated).
	var deadline time.Time
	for {
		blocked := r.firstBlockingDep(t, target)
		if blocked == nil {
			return nil
		}
		ds := r.slotOf(blocked)
		if ds == nil {
			return nil
		}
		ch := ds.waitCh()
		// Re-check under the fresh channel to avoid lost wakeups. A
		// predecessor that ends advances past every step (finish), so
		// its step channel is the one wake this wait needs.
		if blocked.Finished() || ds.step() > target {
			continue
		}
		if err := r.env.Wait(t, blocked, &deadline, ch); err != nil {
			return err
		}
	}
}

// firstBlockingDep returns a dependency of t, managed by this node, that has
// not yet finished executing step target. It walks t's own dependency set in
// place: nothing in the loop records a dependency.
func (r *RP) firstBlockingDep(t *core.Txn, target int) *core.Txn {
	for _, d := range t.Deps() {
		if d.T.Finished() || !r.node.InSubtree(d.T) {
			continue
		}
		ds := r.slotOf(d.T)
		if ds == nil {
			continue
		}
		if ds.step() <= target {
			//lint:allow poolescape -- d.T was marked shared when AddDep recorded it; returning an already-shared txn adds no escape
			return d.T
		}
	}
	return nil
}

// PreRead implements core.CC: enter the table's step, then take an intra-step
// shared lock.
func (r *RP) PreRead(t *core.Txn, k core.Key) error {
	if err := r.enterStep(t, k.Table); err != nil {
		return err
	}
	return r.acquire(t, k, lockmgr.Shared)
}

// PreWrite implements core.CC: enter the table's step, then take an
// intra-step exclusive lock.
func (r *RP) PreWrite(t *core.Txn, k core.Key) error {
	if err := r.enterStep(t, k.Table); err != nil {
		return err
	}
	return r.acquire(t, k, lockmgr.Exclusive)
}

func (r *RP) acquire(t *core.Txn, k core.Key, m lockmgr.Mode) error {
	fresh, err := r.locks.Grant(t, k, m)
	if fresh {
		b := r.slotOf(t).own
		b.held = append(b.held, k)
	}
	return err
}

// releaseHeld releases the locks t holds here and empties the list in
// place, zeroing its elements so that the array keeps no key strings
// reachable once it is pooled.
func (r *RP) releaseHeld(t *core.Txn, s *slot) {
	b := s.own
	r.locks.ReleaseAll(t, b.held)
	clear(b.held)
	b.held = b.held[:0]
}

// AmendRead implements core.CC. RP accepts the child's proposal if it is a
// pending write from the reader's own child subtree — whether or not it is
// step-committed, the child chose it and conflicts between the reader and
// that writer are delegated (substituting committed history here would hand
// the reader a stale value and lose the predecessor's update; exactly that
// happened in the hot-4layer RP-over-(RP|2PL) nesting). Otherwise it returns
// the latest step-committed (or fully committed) value written in this
// node's subtree, exposing pipeline predecessors' uncommitted state. If the
// subtree never wrote the key the proposal (or nil) passes through for
// ancestors to amend.
func (r *RP) AmendRead(t *core.Txn, k core.Key, ch *core.Chain, proposal *core.Version) (*core.Version, error) {
	if proposal != nil && proposal.Pending() && !proposal.StepCommitted() &&
		r.node.SameChild(t, proposal.Writer) {
		// Not yet exposed: only the child can justify reading it.
		return proposal, nil
	}
	// Candidates: committed history from anywhere (a committed version is
	// just data — but same-child versions stay the child's choice: only
	// the version the child proposed may represent them), plus
	// step-committed pending writes from this subtree. A step-committed
	// pending write supersedes all committed versions: it will commit
	// after them. Install order equals pipeline order for writes this
	// node regulates (same-child writes are serialized by the child, and
	// cross-child writes by this node's step X lock), so the last
	// eligible pending version is the latest.
	var bestCommitted, bestPending *core.Version
	if proposal != nil && proposal.Committed() {
		bestCommitted = proposal
	}
	for _, v := range ch.Versions() {
		if v.Writer == t || v.Promise {
			continue
		}
		if r.node.SameChild(t, v.Writer) && v != proposal {
			continue
		}
		switch {
		case v.Committed():
			if bestCommitted == nil || v.CommitTS() > bestCommitted.CommitTS() {
				bestCommitted = v
			}
		case v.Pending() && (v.StepCommitted() || v == proposal) && r.node.InSubtree(v.Writer):
			bestPending = v
		}
	}
	if bestPending != nil {
		return bestPending, nil
	}
	if bestCommitted != nil {
		return bestCommitted, nil
	}
	return proposal, nil
}

// PostWrite implements core.CC: remember the version for step-commit
// exposure and record write-write ordering on pending in-subtree versions.
func (r *RP) PostWrite(t *core.Txn, k core.Key, ch *core.Chain, v *core.Version) error {
	b := r.slotOf(t).own
	b.written = append(b.written, v)
	for _, old := range ch.Versions() {
		if old == v || old.Writer == t || !old.Pending() {
			continue
		}
		if r.node.InSubtree(old.Writer) {
			if err := t.AddDep(old.Writer, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// Validate implements core.CC: RP delays commit until the dependency set has
// committed, which the engine's consistent-ordering wait performs.
func (r *RP) Validate(t *core.Txn) error { return nil }

// Commit implements core.CC: release remaining locks and wake step waiters.
func (r *RP) Commit(t *core.Txn) { r.finish(t) }

// Abort implements core.CC. Aborting a transaction that already exposed
// step-committed writes cascades to readers via the engine's read-from
// dependency tracking.
func (r *RP) Abort(t *core.Txn) { r.finish(t) }

func (r *RP) finish(t *core.Txn) {
	s := r.slotOf(t)
	if s == nil {
		return
	}
	r.releaseHeld(t, s)
	s.advanceTo(t, r.analysis.MaxRank+1)
	// Other transactions still read cur and park on wake, but the
	// buffers are the owner's and it is done: they go back to the pool,
	// emptied by releaseHeld and advanceTo.
	ownPool.Put(s.own)
	s.own = nil
}
