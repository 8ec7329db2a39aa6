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
// transactions of the same child group share one start timestamp, delaying
// their relative order until commit so the child CC is free to order them.
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// DefaultBatchSize bounds how many transactions share one batch timestamp
// before the batch rotates.
const DefaultBatchSize = 64

// DefaultBatchAge rotates a batch after this duration even if not full.
const DefaultBatchAge = 2 * time.Millisecond

// marks carries the anti-dependency flags of one batch (or of one
// transaction when SSI runs unbatched), plus a count of committed members:
// once a member has committed the batch can no longer be aborted, so a
// transaction that would turn it into a pivot must abort itself instead
// (Cahill-style SSI at batch granularity).
type marks struct {
	in        atomic.Bool
	out       atomic.Bool
	committed atomic.Int32
}

func (m *marks) pivot() bool { return m.in.Load() && m.out.Load() }

// immutable reports that some member already committed, so aborting this
// batch is no longer possible.
func (m *marks) immutable() bool { return m.committed.Load() > 0 }

// batch groups same-child transactions under one start timestamp.
type batch struct {
	marks
	startTS uint64
	count   int
	active  int
	created time.Time
}

// SSI is a serializable-snapshot-isolation CC node.
type SSI struct {
	env       *core.Env
	node      *core.Node
	optimized bool
	batchSize int
	batchAge  time.Duration

	mu      sync.Mutex
	current map[*core.Node]*batch // per-child current batch (batched mode)
	// live holds batches with unfinished members in creation (= startTS)
	// order: their snapshots bound what GC and reader-record pruning may
	// discard.
	live []*batch
}

type slot struct {
	// snapTS is the snapshot timestamp; math.MaxUint64 means
	// "latest committed" (optimized-mode update transactions).
	snapTS uint64
	batch  *batch // nil in optimized mode and for leaf transactions
	own    marks  // per-transaction marks when batch == nil (value: one allocation per Begin, not two)
	// readChains are the chains this transaction read (batched mode):
	// Validate rescans them so anti-dependencies to writers that
	// committed after the read are not missed.
	readChains []*core.Chain
}

func (s *slot) flags() *marks {
	if s.batch != nil {
		return &s.batch.marks
	}
	return &s.own
}

// Options tune an SSI node.
type Options struct {
	BatchSize int
	BatchAge  time.Duration
	// ForceBatched disables optimized-mode detection (tests).
	ForceBatched bool
}

// New creates an SSI mechanism for node. Optimized mode engages
// automatically when at most one child subtree contains updating transaction
// types.
func New(env *core.Env, node *core.Node, opt Options) *SSI {
	s := &SSI{
		env:       env,
		node:      node,
		batchSize: opt.BatchSize,
		batchAge:  opt.BatchAge,
		current:   make(map[*core.Node]*batch),
	}
	if s.batchSize <= 0 {
		s.batchSize = DefaultBatchSize
	}
	if s.batchAge <= 0 {
		s.batchAge = DefaultBatchAge
	}
	if len(node.Children) > 0 && !opt.ForceBatched {
		updating := 0
		for _, c := range node.Children {
			upd := false
			for _, typ := range append(c.SubtreeTypes(), c.Types...) {
				if sp := env.Specs[typ]; sp == nil || !sp.ReadOnly {
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

// Optimized reports whether the node runs in the batching-free
// read-only/update optimized mode.
func (s *SSI) Optimized() bool { return s.optimized }

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
		sp := s.env.Specs[t.Type]
		if sp != nil && sp.ReadOnly {
			sl.snapTS = t.BeginTS
		} else {
			sl.snapTS = math.MaxUint64
		}
	case len(s.node.Children) == 0:
		sl.snapTS = t.BeginTS
	default:
		child := s.node.ChildFor(t)
		s.mu.Lock()
		b := s.current[child]
		if b == nil || b.count >= s.batchSize || time.Since(b.created) > s.batchAge {
			b = &batch{startTS: s.env.Oracle.Next(), created: time.Now()}
			s.current[child] = b
			s.live = append(s.live, b)
		}
		b.count++
		b.active++
		s.mu.Unlock()
		sl.batch = b
		sl.snapTS = b.startTS
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
			if s.sameGroup(t, v.Writer) || s.optimized {
				continue
			}
			if cts := v.Writer.CommitTS(); cts != 0 && cts <= sl.snapTS {
				// The writer is mid-commit with a timestamp our
				// snapshot must include: wait for it to finish,
				// then re-run the read.
				return nil, &core.WaitFor{V: v}
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
		// its Validate rescan detects that case.
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
func (s *SSI) Validate(t *core.Txn) error {
	if s.optimized {
		return nil
	}
	sl := s.slotOf(t)
	for _, ch := range sl.readChains {
		ch.Lock()
		var err error
		for _, v := range ch.Versions() {
			if v.Writer == t || v.Promise {
				continue
			}
			if v.Pending() {
				continue
			}
			if v.CommitTS() > sl.snapTS {
				if s.node.SameChild(t, v.Writer) {
					err = core.ErrConflict
					break
				}
				if err = s.flagAntiDep(sl, v.Writer, true); err != nil {
					break
				}
			}
		}
		ch.Unlock()
		if err != nil {
			return err
		}
	}
	if sl.flags().pivot() {
		return core.ErrPivot
	}
	return nil
}

// SnapshotLowerBound reports the oldest snapshot any current (or future,
// via an open batch) transaction of this node may read at. The engine's
// watermark takes the minimum over all CC nodes, so version GC and
// reader-record pruning never discard state a live batch snapshot still
// needs.
func (s *SSI) SnapshotLowerBound() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.live) > 0 && s.live[0].active == 0 && time.Since(s.live[0].created) > s.batchAge {
		s.live = s.live[1:]
	}
	if len(s.live) == 0 {
		return ^uint64(0)
	}
	return s.live[0].startTS
}

func (s *SSI) release(t *core.Txn) {
	if sl := s.slotOf(t); sl != nil && sl.batch != nil {
		s.mu.Lock()
		sl.batch.active--
		s.mu.Unlock()
	}
}

// Commit implements core.CC: record that the batch now has a committed
// member (it can no longer be chosen as a pivot victim).
func (s *SSI) Commit(t *core.Txn) {
	if sl := s.slotOf(t); sl != nil && !s.optimized {
		sl.flags().committed.Add(1)
	}
	s.release(t)
}

// Abort implements core.CC.
func (s *SSI) Abort(t *core.Txn) { s.release(t) }

// String renders the slot for diagnostics.
func (s *slot) String() string {
	f := s.flags()
	return fmt.Sprintf("ssi{snap=%d batch=%p in=%v out=%v}", s.snapTS, s.batch, f.in.Load(), f.out.Load())
}
