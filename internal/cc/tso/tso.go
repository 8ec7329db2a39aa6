// Package tso implements multiversioned timestamp ordering (§4.4.4).
//
// Every transaction receives a timestamp at start; the serialization order
// IS timestamp order. A read returns the latest version with a smaller
// timestamp — including uncommitted versions from other groups (TSO
// pipelines by exposing uncommitted writes). A writer aborts if a reader
// with a larger timestamp already read the version it would supersede
// (read-timestamp rule). To prevent aborted reads, readers of uncommitted
// versions record write-read dependencies and commit only after those
// commit (the engine's dependency wait).
//
// Promises (Faleiro-style early write visibility): a transaction may declare
// at start time the keys it will write; readers that select the promised
// version block until the value arrives instead of eventually aborting the
// writer.
//
// As a non-leaf, TSO preserves consistent ordering by batching
// (core.Batches, the lifecycle SSI uses too): transactions of the same child
// share a timestamp, their in-batch order is delegated to the child, and
// batches commit in timestamp order. As in the paper, TSO is most efficient
// as a leaf (no batching needed) — e.g. one TSO instance per SEATS flight
// under a 2PL cross-group parent.
package tso

import (
	"time"

	"repro/internal/core"
)

// TSO is a multiversion timestamp ordering CC node.
type TSO struct {
	env     *core.Env
	node    *core.Node
	batches *core.Batches[struct{}]
}

type slot struct {
	ts    uint64
	batch *core.Batch[struct{}] // nil at leaves
	// promises are placeholder versions installed at start; unfulfilled
	// ones are removed at finish.
	promises []promiseRef
}

type promiseRef struct {
	ch *core.Chain
	v  *core.Version
}

// New creates a TSO mechanism for node.
func New(env *core.Env, node *core.Node) *TSO {
	return &TSO{env: env, node: node, batches: core.NewBatches[struct{}](env)}
}

// Name implements core.CC.
func (o *TSO) Name() string { return "TSO" }

// NeedsReadRecords implements core.ReadRecordNeeder (see PostWrite).
func (o *TSO) NeedsReadRecords() {}

func (o *TSO) slotOf(t *core.Txn) *slot {
	if len(t.Slots) <= o.node.Depth {
		return nil
	}
	s, _ := t.Slots[o.node.Depth].(*slot)
	return s
}

func (o *TSO) sameGroup(t, w *core.Txn) bool {
	st, sw := o.slotOf(t), o.slotOf(w)
	if st == nil || sw == nil {
		return false
	}
	return st.batch != nil && st.batch == sw.batch
}

// Begin implements core.CC: assign the TSO timestamp — per transaction at a
// leaf, per same-child batch otherwise.
func (o *TSO) Begin(t *core.Txn) error {
	s := &slot{}
	if len(o.node.Children) == 0 {
		s.ts = t.BeginTS
	} else {
		s.batch = o.batches.Join(o.node.ChildFor(t))
		s.ts = s.batch.TS
	}
	t.Slots[o.node.Depth] = s
	return nil
}

// Promise installs a placeholder version for a key the transaction declared
// it will write, so readers wait instead of aborting the writer. Called by
// the engine with the chain locked.
func (o *TSO) Promise(t *core.Txn, ch *core.Chain) {
	s := o.slotOf(t)
	v := ch.InstallPromise(t, s.ts)
	s.promises = append(s.promises, promiseRef{ch: ch, v: v})
}

// PreRead implements core.CC: TSO never blocks before reading; waiting for
// promised values is signalled from AmendRead.
func (o *TSO) PreRead(t *core.Txn, k core.Key) error { return nil }

// PreWrite implements core.CC.
func (o *TSO) PreWrite(t *core.Txn, k core.Key) error { return nil }

// orderTS is the position of a version in TSO's serialization order:
// its TSO timestamp for versions written in this node's subtree, its commit
// timestamp for (committed) cross-group versions. Both come from the global
// oracle, so they are comparable. Returns 0 for versions TSO must ignore:
// pending cross-subtree writes (an ancestor's business) and the versions of
// an aborted writer, which stay in the chain from MarkAborted until the
// abort path removes them and must be invisible for all of that window.
func (o *TSO) orderTS(v *core.Version) uint64 {
	state := v.Writer.State()
	if state == core.Aborted {
		return 0
	}
	if o.node.InSubtree(v.Writer) && v.TS != 0 {
		return v.TS
	}
	if state == core.Committed {
		return v.CommitTS()
	}
	return 0
}

// AmendRead implements core.CC: accept a same-batch proposal, else return
// the version with the largest order timestamp below the reader's, blocking
// on unfulfilled promises (via core.WaitFor).
func (o *TSO) AmendRead(t *core.Txn, k core.Key, ch *core.Chain, proposal *core.Version) (*core.Version, error) {
	s := o.slotOf(t)
	if proposal != nil && o.sameGroup(t, proposal.Writer) {
		return proposal, nil
	}
	var best *core.Version
	var bestTS uint64
	tooLate := false
	consider := func(v *core.Version) {
		if v == nil || v.Writer == t {
			return
		}
		ts := o.orderTS(v)
		switch {
		case ts == 0:
		case ts >= s.ts:
			// A committed version from outside this subtree that follows
			// the reader in timestamp order: the ancestor that regulates
			// that writer has already ordered it BEFORE this read (and
			// will serve its value), which the reader's timestamp cannot
			// express.
			tooLate = tooLate || !o.node.InSubtree(v.Writer)
		case best == nil || ts >= bestTS:
			// >=: the versions of another batch share one timestamp, and
			// the later-installed one supersedes (the chain is in install
			// order).
			best, bestTS = v, ts
		}
	}
	consider(proposal)
	for _, v := range ch.Versions() {
		if o.sameGroup(t, v.Writer) {
			continue
		}
		consider(v)
	}
	if tooLate {
		// Read too late: retry with a timestamp above that commit.
		return nil, core.ErrConflict
	}
	if best == nil {
		return nil, nil
	}
	if best.Promise {
		return nil, &core.WaitFor{V: best}
	}
	// Read-timestamp maintenance: a later writer slotting in between
	// best and us would invalidate this read.
	if best.RTS < s.ts {
		best.RTS = s.ts
	}
	return best, nil
}

// PostWrite implements core.CC: stamp the version with the writer's TSO
// timestamp, abort a write that arrives too late (a larger-timestamped
// version is already installed, or a larger-timestamped reader already read
// the version this write supersedes), and record write-write ordering on
// smaller-timestamped pending versions.
func (o *TSO) PostWrite(t *core.Txn, k core.Key, ch *core.Chain, v *core.Version) error {
	s := o.slotOf(t)
	if v.TS == 0 {
		v.TS = s.ts
	}
	for _, old := range ch.Versions() {
		if old == v || old.Writer == t {
			continue
		}
		if o.sameGroup(t, old.Writer) {
			// Same batch ⇒ same timestamp, and v (installed last, under
			// the chain lock) supersedes old in the serialization order.
			// A cross-batch reader with a larger timestamp that read old
			// missed this write.
			if old.RTS > v.TS {
				return core.ErrConflict
			}
			continue
		}
		ts := o.orderTS(old)
		if ts == 0 {
			continue
		}
		if ts > v.TS {
			// Write too late: a version that follows v in timestamp
			// order is already installed. Everything outside TSO (GC,
			// ReadCommitted, log replay) orders a key's versions by
			// commit timestamp, so v may not commit after a version it
			// precedes: per key, timestamp order = install order =
			// commit order.
			return core.ErrConflict
		}
		// old precedes v, so any reader of old with a timestamp above
		// v's missed this write: the write arrives too late. Every
		// predecessor must be checked, not just the maximal one: a
		// reader may have been served an older version while a newer
		// one was still a promise or has since aborted.
		if old.RTS > v.TS {
			return core.ErrConflict
		}
		if old.Pending() && o.node.InSubtree(old.Writer) {
			// Smaller-timestamped pending write precedes us.
			if err := t.AddDep(old.Writer, false); err != nil {
				return err
			}
		}
	}
	// The read-timestamp rule for readers without a TSO timestamp: a
	// reader from outside this subtree is ordered by a lock-based ancestor,
	// i.e. at its commit, and that ancestor left a record of the read. One
	// that committed above v's timestamp read a version v supersedes.
	for _, r := range ch.Readers() {
		if r.T != t && !o.node.InSubtree(r.T) && r.T.State() == core.Committed && r.T.CommitTS() > v.TS {
			return core.ErrConflict
		}
	}
	return nil
}

// SnapshotLowerBound reports the oldest undrained batch timestamp at this
// node, bounding what GC may discard.
func (o *TSO) SnapshotLowerBound() uint64 { return o.batches.SnapshotLowerBound() }

// Validate implements core.CC: at a non-leaf, commit batches in timestamp
// order — wait until every earlier batch has drained.
func (o *TSO) Validate(t *core.Txn) error {
	s := o.slotOf(t)
	if s.batch == nil {
		return nil
	}
	var deadline time.Time
	for {
		waitOn := o.batches.EarliestBefore(s.batch)
		if waitOn == nil {
			return nil
		}
		// A batch is not a transaction: no blocker, no block event.
		if err := o.env.Wait(t, nil, &deadline, waitOn.Drained()); err != nil {
			return err
		}
	}
}

// Commit implements core.CC.
func (o *TSO) Commit(t *core.Txn) { o.finish(t) }

// Abort implements core.CC.
func (o *TSO) Abort(t *core.Txn) { o.finish(t) }

func (o *TSO) finish(t *core.Txn) {
	s := o.slotOf(t)
	if s == nil {
		return
	}
	// Remove unfulfilled promises (a fulfilled promise became an ordinary
	// write tracked by the engine).
	for _, p := range s.promises {
		p.ch.Lock()
		if p.v.Promise {
			p.ch.Remove(p.v)
		}
		p.ch.Unlock()
	}
	s.promises = nil
	if s.batch != nil {
		o.batches.Leave(s.batch)
	}
}
