package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TxnState is the lifecycle state of a transaction.
type TxnState int32

const (
	// Active: the transaction is executing or validating.
	Active TxnState = iota
	// Committed: the transaction committed; its versions are durable in the
	// multiversion store and carry its commit timestamp.
	Committed
	// Aborted: the transaction aborted; its versions have been removed.
	Aborted
)

// String implements fmt.Stringer.
func (s TxnState) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// Dep is a direct dependency edge recorded during execution: the owning
// transaction is ordered after T. Read marks a read-from dependency on an
// uncommitted version (which cascades aborts); otherwise the edge is a pure
// ordering (ww / rw / lock-order) dependency.
type Dep struct {
	T    *Txn
	Read bool
}

// WriteRef remembers an uncommitted version installed by a transaction so the
// engine can finalize or remove it at commit/abort.
type WriteRef struct {
	Chain *Chain
	V     *Version
}

// Txn is one executing transaction. A transaction is pinned at begin time to
// a path of CC-tree nodes (root..leaf); every node on the path participates
// in each of the four protocol phases. Per-node protocol state lives in
// Slots, indexed by the node's depth.
//
// # Reclamation rule (transaction pooling)
//
// Txn objects are recycled through a sync.Pool (GetTxn/PutTxn) to keep
// read-only transactions allocation-free. Recycling is safe only if no other
// goroutine can still hold the pointer when it is reused, so every operation
// that lets the pointer escape the owning goroutine sets a sticky `shared`
// flag, and PutTxn refuses to recycle a shared transaction.
//
// The escape-point list is no longer maintained by hand: the poolescape
// analyzer (internal/analysis/poolescape) derives it from the code and flags
// any escape edge not dominated by a MarkShared call. Print the current list
// with:
//
//	go run ./cmd/tebaldivet -escapepoints ./internal/...
//
// As of this writing it is:
//
//   - Txn.AddWrite / Chain.InstallPromise: an installed Version carries
//     Writer *Txn, which late readers may follow long after commit.
//   - Chain.RecordReader: the chain's reader list holds ReadRec.T.
//   - twopl.TwoPL.AmendRead: builds such a ReadRec, only in trees with a TSO
//     node below the 2PL node (the reader already went through Table.Grant).
//   - Txn.AddDep: the *target* transaction's pointer enters this txn's
//     dependency set (targets reaching AddDep are already shared — they
//     came from a version or a lock table — but AddDep re-marks them for
//     robustness).
//   - lockmgr.Table.Grant (Acquire is a call to it): the lock table's owner
//     list and blocked waiters retain the pointer.
//   - engine.Engine.loadVersion: bulk load installs versions outside any CC
//     tree, so the synthetic writer is marked at construction. (This one was
//     missing from the hand-maintained list — the analyzer found it.)
//
// All escapes happen on the owner goroutine before the pointer is published,
// so the flag check at finish time is race-free. Read-only transactions under
// an optimized snapshot tree (no locks, no reader records, no writes, no
// deps) hit none of these and are recycled on every commit.
//
// The write list and dependency set are recycled on their own, shared
// transaction or not, under a different argument (see lists).
type Txn struct {
	// ID is unique per engine instance.
	ID uint64
	// Type is the static transaction type (e.g. "new_order"); grouping is
	// by type, optionally refined by instance (Part).
	Type string
	// Part is the instance-partition input (e.g. SEATS flight id), used by
	// partition-by-instance nodes to route among cloned children.
	Part uint64
	// BeginTS is drawn from the global timestamp oracle at begin. It is
	// the SSI/TSO start timestamp and the GC watermark contribution.
	BeginTS uint64
	// Path is the root..leaf chain of CC nodes responsible for this
	// transaction. Fixed at begin.
	Path []*Node
	// Slots holds per-node CC protocol state, indexed by node depth.
	Slots []any
	// Start is the wall-clock begin time (profiling and latency stats).
	Start time.Time

	state    atomic.Int32
	commitTS atomic.Uint64
	shared   atomic.Bool
	// handoff is set when t's goroutine fires a Wake a waiter made (see
	// Handoff). Only that goroutine writes or reads it.
	handoff bool

	// mu guards done, and its critical sections never acquire other locks.
	// Only test setups take it under a chain mutex, committing a writer
	// (Mark*→wake) with its chain locked.
	// tebaldi:locks after core.Chain
	mu   sync.Mutex
	done Wake // fired when t finishes; its channel is made only if someone waits

	// own holds the write list and the dependency set, nil until the first
	// AddWrite or AddDep. Only t's goroutine touches them, so they take no
	// lock: the engine, and the CC calls made on t's behalf (SSI's
	// Validate, lockmgr.Grant for the requesting transaction, RP's step
	// entry).
	own *lists
}

// lists are a transaction's owner-only write list and dependency set. They
// outlive the transaction: PutTxn keeps them with a recycled Txn and returns
// a shared one's to listsPool, so a writer reuses the backing arrays an
// earlier writer grew instead of growing its own from nil.
//
// This is not the reclamation rule above: that rule guards the *Txn, which
// foreign goroutines reach through versions, lock tables and dependency
// sets, and poolescape checks it. No foreign goroutine ever reaches a
// lists: the pointer lives only in own, and Writes and Deps hand out slices
// that only the owner reads. By the time PutTxn returns it the owner is
// done with them, and reset zeroes the elements first, so a buffer in the
// pool keeps no version, chain or transaction reachable.
type lists struct {
	writes []WriteRef
	deps   []Dep
}

var listsPool = sync.Pool{New: func() any { return new(lists) }}

// reset empties l for its next transaction.
func (l *lists) reset() {
	clear(l.writes)
	l.writes = l.writes[:0]
	clear(l.deps)
	l.deps = l.deps[:0]
}

// ownLists returns t's lists, taking a pair from the pool on first use.
func (t *Txn) ownLists() *lists {
	if t.own == nil {
		t.own = listsPool.Get().(*lists)
	}
	return t.own
}

// closedChan is returned by Done for already-finished transactions so the
// common never-waited-on case needs no channel allocation at all.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// NewTxn constructs an Active transaction. The engine fills in Path/Slots.
// The done channel and the lists are made or taken lazily on first use.
func NewTxn(id uint64, typ string, part uint64, beginTS uint64) *Txn {
	return &Txn{
		ID:      id,
		Type:    typ,
		Part:    part,
		BeginTS: beginTS,
		Start:   time.Now(),
	}
}

var txnPool = sync.Pool{New: func() any { return new(Txn) }}

// GetTxn returns a pooled Active transaction, falling back to allocation.
// Path/Slots retain their backing arrays from a previous life (length 0).
func GetTxn(id uint64, typ string, part uint64, beginTS uint64) *Txn {
	t := txnPool.Get().(*Txn)
	t.ID = id
	t.Type = typ
	t.Part = part
	t.BeginTS = beginTS
	t.Start = time.Now()
	return t
}

// PutTxn recycles a finished transaction whose pointer provably never escaped
// the owning goroutine (see the reclamation rule on Txn). It reports whether
// the transaction was recycled; shared or still-active transactions are left
// for the garbage collector.
func PutTxn(t *Txn) bool {
	if t.State() == Active {
		return false
	}
	if t.shared.Load() {
		// The pointer lives on (a committed writer stays reachable
		// through Version.Writer while its newest version does), but
		// only the owner reads its lists, and it is done: they go back
		// to the pool for the next writer, emptied of the pruned
		// versions and finished transactions they held.
		if l := t.own; l != nil {
			t.own = nil
			l.reset()
			listsPool.Put(l)
		}
		return false
	}
	t.ID, t.Type, t.Part, t.BeginTS = 0, "", 0, 0
	t.Start = time.Time{}
	// Zero the elements before truncating so stale CC slot state and node
	// pointers don't survive into the next life via the shared backing array.
	for i := range t.Path {
		t.Path[i] = nil
	}
	t.Path = t.Path[:0]
	for i := range t.Slots {
		t.Slots[i] = nil
	}
	t.Slots = t.Slots[:0]
	t.state.Store(int32(Active))
	t.commitTS.Store(0)
	t.handoff = false
	t.done = Wake{}
	if t.own != nil {
		t.own.reset()
	}
	txnPool.Put(t)
	return true
}

// MarkShared records that t's pointer escaped to a place a foreign goroutine
// may read after t finishes (version chains, lock tables, dependency sets).
// The flag is sticky: once shared, the Txn is never pooled.
func (t *Txn) MarkShared() { t.shared.Store(true) }

// Shared reports whether the transaction's pointer has escaped (see
// MarkShared); used by the pool eligibility check and its tests.
func (t *Txn) Shared() bool { return t.shared.Load() }

// State returns the transaction's current lifecycle state.
func (t *Txn) State() TxnState { return TxnState(t.state.Load()) }

// CommitTS returns the commit timestamp: 0 before the transaction commits,
// drawingTS while MarkCommittedNext draws it.
func (t *Txn) CommitTS() uint64 { return t.commitTS.Load() }

// Done returns a channel closed when the transaction commits or aborts. The
// channel is allocated on first call; transactions nobody waits on never pay
// for one.
func (t *Txn) Done() <-chan struct{} {
	var d <-chan struct{} = closedChan
	t.mu.Lock()
	if t.State() == Active {
		d = t.done.Chan()
	}
	t.mu.Unlock()
	return d
}

// wake fires the done channel, if any waiter made one.
func (t *Txn) wake() {
	t.mu.Lock()
	t.done.Fire(t)
	t.mu.Unlock()
}

// Handoff reports whether t's goroutine woke a waiter: it fired a Wake that
// a waiter had made (a lock release, an RP step advance, t's own end). The
// engine then yields the processor once t has ended.
func (t *Txn) Handoff() bool { return t.handoff }

// Finished reports whether the transaction has committed or aborted.
func (t *Txn) Finished() bool { return t.State() != Active }

// drawingTS is what CommitTS reads while MarkCommittedNext draws the commit
// timestamp. It lies at or below every snapshot, so a reader that sees the
// writer still pending waits for it (SSI's committing-version wait) instead
// of skipping a write whose timestamp may come out below its snapshot.
const drawingTS = 1

// MarkCommittedNext draws the commit timestamp from the oracle, publishes it
// and commits t, which must be Active: only its owner ends a transaction, so
// nothing else can have finished it. CommitTS reads drawingTS from before
// the draw until the publication, so no reader whose snapshot postdates the
// timestamp sees the version pending with no commit timestamp.
func (t *Txn) MarkCommittedNext(o Oracle) uint64 {
	t.commitTS.Store(drawingTS)
	ts := o.Next()
	t.commitTS.Store(ts)
	if !t.state.CompareAndSwap(int32(Active), int32(Committed)) {
		panic(fmt.Sprintf("core: commit of transaction %d, which is %s", t.ID, t.State()))
	}
	t.wake()
	return ts
}

// MarkCommitted transitions Active -> Committed with the given commit
// timestamp and wakes all waiters. It reports false if the transaction was
// already finished.
func (t *Txn) MarkCommitted(ts uint64) bool {
	// The timestamp must be visible before the state flips: readers check
	// State() first and then read CommitTS.
	t.commitTS.Store(ts)
	if !t.state.CompareAndSwap(int32(Active), int32(Committed)) {
		t.commitTS.Store(0)
		return false
	}
	t.wake()
	return true
}

// MarkAborted transitions Active -> Aborted and wakes all waiters. It reports
// false if the transaction was already finished.
func (t *Txn) MarkAborted() bool {
	if !t.state.CompareAndSwap(int32(Active), int32(Aborted)) {
		return false
	}
	t.wake()
	return true
}

// AddDep records that t is ordered after other. Read-from dependencies on
// uncommitted writers (read=true) propagate aborts; pure ordering
// dependencies only delay commit. Dependencies on already-committed
// transactions are dropped (nothing to wait for); a read-from dependency on
// an already-aborted transaction returns ErrCascade.
func (t *Txn) AddDep(other *Txn, read bool) error {
	if other == nil || other == t {
		return nil
	}
	switch other.State() {
	case Committed:
		return nil
	case Aborted:
		if read {
			return ErrCascade
		}
		return nil
	}
	// The target's pointer is retained in our dependency set and waited on
	// at commit; it must never be recycled under us.
	other.MarkShared()
	l := t.ownLists()
	for i := range l.deps {
		if l.deps[i].T == other {
			l.deps[i].Read = l.deps[i].Read || read
			return nil
		}
	}
	l.deps = append(l.deps, Dep{T: other, Read: read})
	return nil
}

// Deps returns the recorded dependency set, one element per transaction, in
// the order recorded. The slice is t's own: read it on t's goroutine, do
// not modify it, and do not keep it past t's next AddDep.
func (t *Txn) Deps() []Dep {
	if t.own == nil {
		return nil
	}
	return t.own.deps
}

// AddWrite records an installed (still uncommitted) version. The version
// carries the writer pointer, so the transaction becomes shared.
func (t *Txn) AddWrite(c *Chain, v *Version) {
	t.MarkShared()
	l := t.ownLists()
	l.writes = append(l.writes, WriteRef{Chain: c, V: v})
}

// HasWrites reports whether the transaction has installed any versions; the
// read path uses it to skip the read-your-own-writes chain lock.
func (t *Txn) HasWrites() bool { return len(t.Writes()) > 0 }

// Writes returns the transaction's installed versions in install order. The
// slice is t's own, under the same rules as Deps.
func (t *Txn) Writes() []WriteRef {
	if t.own == nil {
		return nil
	}
	return t.own.writes
}

// Leaf returns the leaf node of the transaction's CC path.
func (t *Txn) Leaf() *Node { return t.Path[len(t.Path)-1] }
