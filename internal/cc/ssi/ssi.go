// Package ssi implements serializable snapshot isolation (§4.4.3).
//
// Transactions read from a snapshot at their start timestamp and make their
// writes visible at their commit timestamp. Write-write conflicts between
// concurrent transactions abort the later writer (first-updater-wins,
// checked at version-install time under the chain mutex). Serializability is
// enforced by aborting "pivots": transactions (batches) with both an
// incoming and an outgoing read-write anti-dependency.
//
// Consistent ordering in the CC tree requires care because SSI decides part
// of the ordering at start time (the snapshot). As a non-leaf, SSI batches:
// transactions of the same child group share one start timestamp
// (core.Batches, the lifecycle TSO uses too), delaying their relative order
// until commit so the child CC is free to order them.
// Batching deliberately "promotes" same-group conflicts that span two
// batches to cross-group conflicts — the paper's observed cost of batched
// SSI under write-heavy workloads.
//
// When SSI sits at the root with at most one updating child (the common
// read-only/update split, §4.4.3 and the initial configuration of §5.2), the
// protocol runs in optimized mode: no batching, no pivot checks; update
// transactions read latest-committed state, read-only transactions read
// their begin snapshot, and commit order follows the in-group order via the
// engine's dependency wait.
package ssi

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
)

// marks carries the anti-dependency flags of one batch (or of one
// transaction when SSI runs unbatched), plus a count of members that have
// begun validating: such a member may commit at any moment, so the batch can
// no longer be aborted, and a transaction that would turn it into a pivot
// must abort itself instead (Cahill-style SSI at batch granularity).
type marks struct {
	in         atomic.Bool
	out        atomic.Bool
	validating atomic.Int32
}

func (m *marks) pivot() bool { return m.in.Load() && m.out.Load() }

// immutable reports that some member has begun validating, so aborting this
// batch is no longer possible.
func (m *marks) immutable() bool { return m.validating.Load() > 0 }

// SSI is a serializable-snapshot-isolation CC node.
type SSI struct {
	env       *core.Env
	node      *core.Node
	optimized bool
	batches   *core.Batches[marks] // batched mode; a batch's State is its marks
}

type slot struct {
	// snapTS is the snapshot timestamp; math.MaxUint64 means
	// "latest committed" (optimized-mode update transactions).
	snapTS uint64
	batch  *core.Batch[marks] // nil in optimized mode and for leaf transactions
	own    marks              // per-transaction marks when batch == nil (value: one allocation per Begin, not two)
	// readChains are the chains this transaction read (batched mode):
	// Validate rescans them so anti-dependencies to writers that
	// committed after the read are not missed.
	readChains []*core.Chain
}

func (s *slot) flags() *marks {
	if s.batch != nil {
		return &s.batch.State
	}
	return &s.own
}

// New creates an SSI mechanism for node. Optimized mode engages
// automatically when at most one child subtree contains updating transaction
// types.
func New(env *core.Env, node *core.Node) *SSI {
	s := &SSI{env: env, node: node, batches: core.NewBatches[marks](env)}
	if len(node.Children) > 0 {
		updating := 0
		for _, c := range node.Children {
			upd := false
			for _, typ := range append(c.SubtreeTypes(), c.Types...) {
				if !env.Specs[typ].ReadOnly {
					upd = true
				}
			}
			if upd {
				updating++
			}
		}
		s.optimized = updating <= 1
	}
	return s
}

// Name implements core.CC.
func (s *SSI) Name() string { return "SSI" }

// DerivedFacts returns what New derived from the subtree: whether optimized
// mode is on. An online update compares it with a fresh build's.
func (s *SSI) DerivedFacts() any { return s.optimized }

func (s *SSI) slotOf(t *core.Txn) *slot {
	if len(t.Slots) <= s.node.Depth {
		return nil
	}
	sl, _ := t.Slots[s.node.Depth].(*slot)
	return sl
}

// sameGroup reports whether a conflict between t and writer is delegated to
// a descendant (and hence exempt from this node's regulation): same batch in
// batched mode, same child subtree in optimized mode, never for a leaf.
func (s *SSI) sameGroup(t, writer *core.Txn) bool {
	if s.optimized {
		return s.node.SameChild(t, writer)
	}
	st, sw := s.slotOf(t), s.slotOf(writer)
	if st == nil || sw == nil {
		return false
	}
	return st.batch != nil && st.batch == sw.batch
}

// Begin implements core.CC: assign the snapshot timestamp — per transaction
// for leaves, per batch for batched non-leaf mode, and "latest" for
// optimized-mode update transactions.
func (s *SSI) Begin(t *core.Txn) error {
	sl := &slot{}
	switch {
	case s.optimized:
		if s.env.Specs[t.Type].ReadOnly {
			sl.snapTS = t.BeginTS
		} else {
			sl.snapTS = math.MaxUint64
		}
	case len(s.node.Children) == 0:
		sl.snapTS = t.BeginTS
	default:
		sl.batch = s.batches.Join(s.node.ChildFor(t))
		sl.snapTS = sl.batch.TS
	}
	t.Slots[s.node.Depth] = sl
	return nil
}

// PreRead implements core.CC: snapshot reads never block.
func (s *SSI) PreRead(t *core.Txn, k core.Key) error { return nil }

// PreWrite implements core.CC: conflicts are detected at install time.
func (s *SSI) PreWrite(t *core.Txn, k core.Key) error { return nil }

// AmendRead implements core.CC. SSI accepts the child's proposal if its
// writer is delegated together with the reader; otherwise it returns the
// newest committed version within the reader's snapshot, recording an
// outgoing anti-dependency if the snapshot missed a newer committed write.
func (s *SSI) AmendRead(t *core.Txn, k core.Key, ch *core.Chain, proposal *core.Version) (*core.Version, error) {
	sl := s.slotOf(t)
	if proposal != nil && s.sameGroup(t, proposal.Writer) {
		// Delegated read (same batch / same child): accept the child's
		// choice — but in batched mode the read must still be
		// registered, because it can anti-depend on OTHER children's
		// writers of this key (writers consult the reader records, and
		// Validate rescans the chain).
		if !s.optimized {
			//lint:allow poolescape -- RecordReader marks rec.T shared before linking the record into the reader list
			ch.RecordReader(core.ReadRec{T: t, SnapshotTS: sl.snapTS, Batch: sl.flags()}, s.env.Watermark)
			last := len(sl.readChains) - 1
			if last < 0 || sl.readChains[last] != ch {
				sl.readChains = append(sl.readChains, ch)
			}
		}
		return proposal, nil
	}
	// Batching hazard (§4.4.3): a same-child writer from an *earlier
	// batch* may already have been ordered before us by the child CC
	// (locks, pipeline). If our batch snapshot would miss its value, the
	// snapshot read would invert the child's order — a consistent-ordering
	// violation. The batched protocol resolves it by aborting the reader:
	// this is exactly how batching "promotes in-group conflicts to
	// cross-group conflicts, causing aborts".
	if !s.optimized && proposal != nil && proposal.Pending() &&
		s.node.SameChild(t, proposal.Writer) {
		return nil, core.ErrConflict
	}
	var best *core.Version
	if proposal != nil && proposal.Committed() && proposal.CommitTS() <= sl.snapTS {
		best = proposal
	}
	for _, v := range ch.Versions() {
		if v.Writer == t || v.Promise {
			continue
		}
		if v.Pending() {
			// The same-group exemption applies only to PENDING
			// versions: those conflicts are the descendant's to
			// regulate, surfaced through the proposal.
			if s.sameGroup(t, v.Writer) {
				continue
			}
			if cts := v.Writer.CommitTS(); cts != 0 && cts <= sl.snapTS {
				// The writer is mid-commit with a timestamp our
				// snapshot must include (or one it is still
				// drawing): wait for it to finish, then re-run the
				// read. Optimized mode too: a read-only reader
				// must not skip a writer ordered before it.
				return nil, &core.WaitFor{V: v}
			}
			if s.optimized {
				continue
			}
			if s.node.InSubtree(v.Writer) {
				// A concurrent pending write this snapshot will
				// miss. The out-edge only becomes dangerous if
				// that writer commits first; flag the writer's
				// incoming side now and re-examine at Validate.
				if err := s.flagAntiDep(sl, v.Writer, false); err != nil {
					return nil, err
				}
			}
			continue
		}
		// Committed versions are history: they participate in the
		// snapshot rule regardless of batch.
		cts := v.CommitTS()
		if cts <= sl.snapTS {
			if best == nil || cts > best.CommitTS() {
				best = v
			}
			continue
		}
		if !s.optimized && s.node.SameChild(t, v.Writer) {
			// A same-child writer committed past our (batch)
			// snapshot. The child CC serializes same-child
			// transactions and may have ordered us after it;
			// reading an older version would invert that order.
			// Abort: the retry joins a fresh batch whose snapshot
			// covers the write — this is how batching "promotes
			// in-group conflicts to cross-group conflicts".
			return nil, core.ErrConflict
		}
		// The snapshot misses this committed write: an
		// anti-dependency t -rw-> v.Writer with a committed
		// out-neighbor — the dangerous kind.
		if err := s.flagAntiDep(sl, v.Writer, true); err != nil {
			return nil, err
		}
	}
	if !s.optimized {
		//lint:allow poolescape -- RecordReader marks rec.T shared before linking the record into the reader list
		ch.RecordReader(core.ReadRec{T: t, SnapshotTS: sl.snapTS, Batch: sl.flags()}, s.env.Watermark)
		last := len(sl.readChains) - 1
		if last < 0 || sl.readChains[last] != ch {
			sl.readChains = append(sl.readChains, ch)
		}
	}
	return best, nil
}

// flagAntiDep records the anti-dependency reader(sl) -rw-> writer. The
// writer's group gains an incoming edge; the reader's group gains an
// outgoing edge only when the writer has committed (Cahill's rule: the
// dangerous structure requires the out-neighbor to commit first — this is
// also what guarantees progress, since the first committer of a conflicting
// clique never sees a committed out-neighbor). If a group that already has a
// committed member would become a pivot, the caller aborts itself instead.
func (s *SSI) flagAntiDep(sl *slot, writer *core.Txn, writerCommitted bool) error {
	if s.optimized {
		return nil
	}
	mine := sl.flags()
	var theirs *marks
	if ws := s.slotOf(writer); ws != nil {
		theirs = ws.flags()
	}
	if theirs != nil && mine != theirs {
		if theirs.out.Load() && theirs.immutable() && !theirs.in.Load() {
			// Setting `in` would turn an unabortable group into a
			// pivot: break the structure here instead.
			return core.ErrPivot
		}
		theirs.in.Store(true)
		if theirs.pivot() && theirs.immutable() {
			return core.ErrPivot
		}
	}
	if writerCommitted {
		mine.out.Store(true)
		if mine.pivot() {
			return core.ErrPivot
		}
	}
	return nil
}

// PostWrite implements core.CC: first-updater-wins under the chain mutex —
// abort if a non-delegated pending write exists or a non-delegated write
// committed after the snapshot — and flag anti-dependencies from readers
// that missed this write.
func (s *SSI) PostWrite(t *core.Txn, k core.Key, ch *core.Chain, v *core.Version) error {
	if s.optimized {
		// A single updating child: all update-update conflicts are
		// delegated; read-only children never write.
		return nil
	}
	sl := s.slotOf(t)
	for _, old := range ch.Versions() {
		if old == v || old.Writer == t || s.sameGroup(t, old.Writer) {
			continue
		}
		if old.Pending() && s.node.InSubtree(old.Writer) {
			return core.ErrConflict
		}
		if old.Committed() && old.CommitTS() > sl.snapTS {
			return core.ErrConflict
		}
	}
	myFlags := sl.flags()
	for _, r := range ch.Readers() {
		if r.T == t || r.T.State() == core.Aborted {
			continue
		}
		// Only concurrent readers matter — concurrency in SI terms:
		// the reader committed before this transaction's SNAPSHOT was
		// taken (a batch snapshot can long predate the member's own
		// begin, so t.BeginTS would be wrong here).
		if r.T.State() == core.Committed && r.T.CommitTS() < sl.snapTS {
			continue
		}
		f, ok := r.Batch.(*marks)
		if !ok || f == myFlags {
			continue
		}
		// r read a version this write supersedes: r -rw-> t — an
		// incoming anti-dependency for our group. The reader's
		// outgoing side becomes dangerous only if we commit first;
		// its Validate rescan detects that case, or ours does if r
		// began validating first.
		myFlags.in.Store(true)
	}
	if myFlags.pivot() {
		return core.ErrPivot
	}
	return nil
}

// Validate implements core.CC: rescan the read set for writes that
// committed after they were read (completing out-edges whose writers were
// still pending at read time), then abort pivots — groups with both an
// incoming and an outgoing anti-dependency (§4.4.3).
//
// Others validate and commit while the engine stages t's log records, so t
// counts as committed once it begins validating: its group turns immutable,
// other rescans take its pending writes as committed, and t sets the
// out-edge of readers of its writes that began validating first (their
// rescan may have missed those writes). Each side marks itself before it
// looks, so of two concurrent validations at least one sees the other.
func (s *SSI) Validate(t *core.Txn) error {
	if s.optimized {
		return nil
	}
	sl := s.slotOf(t)
	mine := sl.flags()
	mine.validating.Add(1)
	for _, ch := range sl.readChains {
		ch.Lock()
		var err error
		for _, v := range ch.Versions() {
			if v.Writer == t || v.Promise {
				continue
			}
			if v.Pending() {
				if ws := s.slotOf(v.Writer); ws != nil && ws.flags() != mine && ws.flags().immutable() {
					err = s.flagAntiDep(sl, v.Writer, true)
				}
			} else if v.CommitTS() > sl.snapTS {
				if s.node.SameChild(t, v.Writer) {
					err = core.ErrConflict
				} else {
					err = s.flagAntiDep(sl, v.Writer, true)
				}
			}
			if err != nil {
				break
			}
		}
		ch.Unlock()
		if err != nil {
			return err
		}
	}
	for _, w := range t.Writes() {
		w.Chain.Lock()
		var err error
		for _, r := range w.Chain.Readers() {
			if f, ok := r.Batch.(*marks); ok && f != mine && r.T != t && f.immutable() && r.T.State() == core.Active {
				f.out.Store(true)
				if f.pivot() {
					err = core.ErrPivot
					break
				}
			}
		}
		w.Chain.Unlock()
		if err != nil {
			return err
		}
	}
	if mine.pivot() {
		return core.ErrPivot
	}
	return nil
}

// SnapshotLowerBound reports the oldest snapshot a member of an undrained
// batch reads at; the engine's watermark takes the minimum over all CC
// nodes, so version GC and reader-record pruning keep what it still needs.
func (s *SSI) SnapshotLowerBound() uint64 { return s.batches.SnapshotLowerBound() }

func (s *SSI) release(t *core.Txn) {
	if sl := s.slotOf(t); sl != nil && sl.batch != nil {
		s.batches.Leave(sl.batch)
	}
}

// Commit implements core.CC.
func (s *SSI) Commit(t *core.Txn) { s.release(t) }

// Abort implements core.CC.
func (s *SSI) Abort(t *core.Txn) { s.release(t) }

// String renders the slot for diagnostics.
func (s *slot) String() string {
	f := s.flags()
	return fmt.Sprintf("ssi{snap=%d batch=%p in=%v out=%v}", s.snapTS, s.batch, f.in.Load(), f.out.Load())
}
