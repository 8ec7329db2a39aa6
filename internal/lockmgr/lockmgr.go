// Package lockmgr implements the lock tables used by Tebaldi's lock-based CC
// mechanisms (two-phase locking and the intra-step locks of Runtime
// Pipelining).
//
// A lock table supports shared/exclusive row locks with three Tebaldi
// specifics:
//
//   - an exemption predicate: transactions delegated to the same child of
//     the owning CC node never conflict (nexus-lock semantics, §3.3.2) —
//     their conflicts are the child's responsibility;
//   - timeout-based deadlock resolution (§4.4.1): waits abort with
//     core.ErrTimeout when they exceed the configured bound;
//   - blocking-event reporting to the performance profiler (§5.3.2).
//
// Acquiring a lock after a wait records ordering dependencies on the owners
// that were waited for, feeding the engine's consistent-ordering commit wait.
package lockmgr

import (
	"sync"
	"time"

	"repro/internal/core"
)

// Mode is a lock mode.
type Mode int

const (
	// Shared is a read lock; shared locks are mutually compatible.
	Shared Mode = iota
	// Exclusive is a write lock; it conflicts with every mode.
	Exclusive
)

// numShardBits is log2 of the table's shard count.
const (
	numShardBits = 6
	numShards    = 1 << numShardBits
)

// inlineOwners is how many owners an entry holds without a heap slice: an
// exclusive lock has one, and shared or same-child groups rarely exceed the
// client count.
const inlineOwners = 4

// Table is a sharded lock table. One table serves one CC node.
type Table struct {
	env *core.Env
	// exempt reports that two transactions never conflict at this table
	// (same-child delegation). May be nil.
	exempt func(a, b *core.Txn) bool
	shards [numShards]shard
}

type shard struct {
	mu    sync.Mutex
	locks map[core.Key]*entry
	// free chains the entries dropped from locks, for reuse by the next
	// first grant in this shard; like the map's buckets it holds at most
	// the shard's peak number of live entries.
	free *entry
}

// owner is one transaction's hold on a key.
type owner struct {
	txn  *core.Txn
	mode Mode
	// upgrading marks an owner currently waiting to upgrade Shared ->
	// Exclusive. Two such owners deadlock unresolvably (each waits for the
	// other's Shared hold); the mark lets the conflict be detected and
	// killed instantly instead of burning the full lock timeout — under
	// retry-loop clients the timeout path livelocks: both upgraders time
	// out together, retry, re-read (Shared never blocks), and re-deadlock,
	// while every other transaction touching the row piles up behind them.
	upgrading bool
}

// entry is the lock state of one key. It is in its shard's map exactly while
// it has an owner or a registered waiter; a waiter may therefore keep its
// pointer across the wait. Once it has neither it goes back to the shard's
// free list and may serve a different key.
type entry struct {
	// owners aliases inline until a fifth concurrent owner spills it to
	// the heap; a recycled entry keeps whichever backing it has.
	owners  []owner
	inline  [inlineOwners]owner
	waiters int
	// wake fires whenever the owner set shrinks or an upgrader joins the
	// wait, so waiters re-check compatibility.
	wake core.Wake
	next *entry // free list link
}

// New creates a lock table. exempt may be nil (no exemption: leaf 2PL).
func New(env *core.Env, exempt func(a, b *core.Txn) bool) *Table {
	t := &Table{env: env, exempt: exempt}
	for i := range t.shards {
		t.shards[i].locks = make(map[core.Key]*entry)
	}
	return t
}

func (t *Table) shardFor(k core.Key) *shard {
	// The placement hash's high bits choose the shard, as in storage.
	return &t.shards[k.Hash()>>(64-numShardBits)]
}

// entryFor returns k's entry, taking one from the free list (or the heap,
// while the shard is still warming up) on the first grant. Called with s.mu
// held.
func (s *shard) entryFor(k core.Key) *entry {
	e := s.locks[k]
	if e == nil {
		if e = s.free; e != nil {
			s.free, e.next = e.next, nil
		} else {
			e = &entry{}
			e.owners = e.inline[:0]
		}
		s.locks[k] = e
	}
	return e
}

// dropIfIdle recycles k's entry once it has neither owners nor waiters.
// Called with s.mu held.
func (s *shard) dropIfIdle(k core.Key, e *entry) {
	if e.waiters == 0 && len(e.owners) == 0 {
		delete(s.locks, k)
		e.wake = core.Wake{} // a timed-out waiter may have left one nobody listens on
		e.next, s.free = s.free, e
	}
}

// indexOf returns txn's position in e.owners, or -1.
func (e *entry) indexOf(txn *core.Txn) int {
	for i := range e.owners {
		if e.owners[i].txn == txn {
			return i
		}
	}
	return -1
}

// add appends an owner. When that spills owners off the inline array, the
// array is cleared: nothing removes from it any more, and a stale copy would
// pin four transactions (and what they depend on) for the entry's lifetime.
func (e *entry) add(o owner) {
	e.owners = append(e.owners, o)
	if len(e.owners) == inlineOwners+1 {
		e.inline = [inlineOwners]owner{}
	}
}

// remove drops owner i, clearing the vacated slot so a recycled entry pins no
// finished transaction.
func (e *entry) remove(i int) {
	last := len(e.owners) - 1
	e.owners[i] = e.owners[last]
	e.owners[last] = owner{}
	e.owners = e.owners[:last]
}

// conflicts reports whether owner's hold in mode om conflicts with txn
// requesting mode m.
func (t *Table) conflicts(owner *core.Txn, om Mode, txn *core.Txn, m Mode) bool {
	if owner == txn {
		return false
	}
	if t.exempt != nil && t.exempt(owner, txn) {
		return false
	}
	return om == Exclusive || m == Exclusive
}

// Acquire takes the lock on k in mode m for txn, blocking until compatible
// or until the table's lock timeout expires (returning core.ErrTimeout).
// Re-acquiring an already-held lock is a no-op; Shared->Exclusive upgrades
// are supported. Ordering dependencies on the owners waited for are recorded
// on txn.
func (t *Table) Acquire(txn *core.Txn, k core.Key, m Mode) error {
	_, err := t.Grant(txn, k, m)
	return err
}

// Grant is Acquire that also reports whether the grant is fresh: txn did not
// hold k in any mode before. A CC node keeps its release list from that —
// one element per fresh grant — and leaves re-entrancy and upgrades to the
// table, which has to track them anyway.
func (t *Table) Grant(txn *core.Txn, k core.Key, m Mode) (fresh bool, err error) {
	// The lock table retains the pointer (owner list; waiters hold it as
	// their recorded blocker) past this call: the txn must never be pooled.
	txn.MarkShared()
	s := t.shardFor(k)
	// Started by the first Env.Wait: the uncontended grant never queries
	// the clock.
	var deadline time.Time

	var blockStart time.Time
	var blocker *core.Txn
	flush := func() {
		if blocker != nil {
			t.env.Report(txn, blocker, blockStart, time.Now())
			blocker = nil
		}
	}

	s.mu.Lock()
	e := s.entryFor(k)
	for {
		me := e.indexOf(txn)
		if me >= 0 && (e.owners[me].mode == Exclusive || m == Shared) {
			e.owners[me].upgrading = false
			s.mu.Unlock()
			flush()
			return false, nil
		}
		// A first grant (me < 0) or an upgrade of txn's Shared hold.
		var conflictOwner *core.Txn
		for i := range e.owners {
			if o := &e.owners[i]; t.conflicts(o.txn, o.mode, txn, m) {
				conflictOwner = o.txn
				break
			}
		}
		if conflictOwner == nil {
			// Grant. The ordering dependencies on the owners waited
			// for were recorded before each wait (pure rw
			// compatibility: S after S needs no edge).
			if me >= 0 {
				e.owners[me] = owner{txn: txn, mode: Exclusive}
			} else {
				e.add(owner{txn: txn, mode: m})
			}
			s.mu.Unlock()
			flush()
			return me < 0, nil
		}
		if me >= 0 {
			// Another Shared holder also waiting to upgrade means an
			// unresolvable deadlock: kill the younger upgrader now
			// (ErrConflict is retryable; the retry re-reads and re-queues
			// with a fresh, larger ID, so the oldest upgrader always
			// wins and the pair resolves in microseconds, not timeouts).
			for i := range e.owners {
				if o := &e.owners[i]; o.txn != txn && o.mode == Shared && o.upgrading &&
					t.conflicts(o.txn, o.mode, txn, m) && txn.ID > o.txn.ID {
					e.owners[me].upgrading = false
					s.mu.Unlock()
					flush()
					return false, core.ErrConflict
				}
			}
			// We will wait: publish the upgrade and wake current waiters
			// so a younger sleeping upgrader re-checks and kills itself.
			if !e.owners[me].upgrading {
				e.owners[me].upgrading = true
				e.wake.Fire(txn)
			}
		}
		wake := e.wake.Chan()
		e.waiters++
		s.mu.Unlock()

		if blocker != conflictOwner {
			flush()
			blocker, blockStart = conflictOwner, time.Now()
		}
		// The conflicting owner must finish (or step-release) before
		// us: a lock-order dependency.
		err = txn.AddDep(conflictOwner, false)
		if err == nil {
			// No blocker is passed: one event per (waiter, blocker) is
			// coalesced across wake-ups and emitted by flush.
			err = t.env.Wait(txn, nil, &deadline, wake)
		}

		// The registration kept e in the map, so the pointer is still k's.
		s.mu.Lock()
		e.waiters--
		if err != nil {
			// The wait will not resume: clear a published upgrade mark.
			if me := e.indexOf(txn); me >= 0 {
				e.owners[me].upgrading = false
			}
			s.dropIfIdle(k, e)
			s.mu.Unlock()
			flush()
			return false, err
		}
		// Woken: re-check. A published upgrade mark stays, because the
		// wait continues until granted or terminal.
	}
}

// Release drops txn's lock on k, waking waiters.
func (t *Table) Release(txn *core.Txn, k core.Key) {
	s := t.shardFor(k)
	s.mu.Lock()
	if e := s.locks[k]; e != nil {
		if i := e.indexOf(txn); i >= 0 {
			e.remove(i)
			e.wake.Fire(txn)
			s.dropIfIdle(k, e)
		}
	}
	s.mu.Unlock()
}

// ReleaseAll drops every lock in keys held by txn.
func (t *Table) ReleaseAll(txn *core.Txn, keys []core.Key) {
	for _, k := range keys {
		t.Release(txn, k)
	}
}

// Holds reports whether txn currently owns a lock on k (any mode).
func (t *Table) Holds(txn *core.Txn, k core.Key) bool {
	s := t.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.locks[k]
	return e != nil && e.indexOf(txn) >= 0
}
