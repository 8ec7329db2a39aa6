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

const numShards = 64

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
	locks map[core.Key]*lock
}

type lock struct {
	owners  map[*core.Txn]Mode
	waiters int
	// upgrading marks owners currently waiting to upgrade Shared ->
	// Exclusive. Two such owners deadlock unresolvably (each waits for the
	// other's Shared hold); the set lets the conflict be detected and
	// killed instantly instead of burning the full lock timeout — under
	// retry-loop clients the timeout path livelocks: both upgraders time
	// out together, retry, re-read (Shared never blocks), and re-deadlock,
	// while every other transaction touching the row piles up behind them.
	upgrading map[*core.Txn]bool
	// gen is closed and replaced whenever the owner set shrinks (or an
	// upgrader joins the wait), waking waiters to re-check compatibility.
	gen chan struct{}
}

// New creates a lock table. exempt may be nil (no exemption: leaf 2PL).
func New(env *core.Env, exempt func(a, b *core.Txn) bool) *Table {
	t := &Table{env: env, exempt: exempt}
	for i := range t.shards {
		t.shards[i].locks = make(map[core.Key]*lock)
	}
	return t
}

func (t *Table) shardFor(k core.Key) *shard {
	// Inlined FNV-1a (core.Key.Hash32): hash/fnv allocated a hasher and
	// three byte-slice conversions on every call; placement is unchanged.
	return &t.shards[k.Hash32()%numShards]
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
	// The lock table retains the pointer (owner map; waiters hold it as
	// their recorded blocker) past this call: the txn must never be pooled.
	txn.MarkShared()
	s := t.shardFor(k)
	// Started by the first Env.Wait: the uncontended grant never queries
	// the clock.
	var deadline time.Time

	var blockStart time.Time
	var blocker *core.Txn
	flush := func(end time.Time) {
		if blocker != nil {
			t.env.Report(txn, blocker, blockStart, end)
			blocker = nil
		}
	}

	cleanupUpgrade := func(l *lock) {
		if l.upgrading != nil {
			delete(l.upgrading, txn)
		}
	}

	for {
		s.mu.Lock()
		l := s.locks[k]
		if l == nil {
			l = &lock{owners: make(map[*core.Txn]Mode, 2), gen: make(chan struct{})}
			s.locks[k] = l
		}
		if held, ok := l.owners[txn]; ok && (held == Exclusive || held == m) {
			cleanupUpgrade(l)
			s.mu.Unlock()
			flush(time.Now())
			return nil
		}
		upgrade := false
		if held, ok := l.owners[txn]; ok && held == Shared && m == Exclusive {
			upgrade = true
		}
		var conflictOwner *core.Txn
		for o, om := range l.owners {
			if t.conflicts(o, om, txn, m) {
				conflictOwner = o
				break
			}
		}
		if upgrade && conflictOwner != nil {
			// Another Shared holder also waiting to upgrade means an
			// unresolvable deadlock: kill the younger upgrader now
			// (ErrConflict is retryable; the retry re-reads and re-queues
			// with a fresh, larger ID, so the oldest upgrader always
			// wins and the pair resolves in microseconds, not timeouts).
			for o, om := range l.owners {
				if o != txn && om == Shared && l.upgrading[o] &&
					t.conflicts(o, om, txn, m) && txn.ID > o.ID {
					cleanupUpgrade(l)
					s.mu.Unlock()
					flush(time.Now())
					return core.ErrConflict
				}
			}
			// We will wait: publish the upgrade and wake current waiters
			// so a younger sleeping upgrader re-checks and kills itself.
			if l.upgrading == nil {
				l.upgrading = make(map[*core.Txn]bool, 2)
			}
			if !l.upgrading[txn] {
				l.upgrading[txn] = true
				close(l.gen)
				l.gen = make(chan struct{})
			}
		}
		if conflictOwner == nil {
			cleanupUpgrade(l)
			// Grant; record ordering dependencies on remaining
			// non-exempt owners (pure rw compatibility: S after S
			// needs no edge).
			if held, ok := l.owners[txn]; !ok || m == Exclusive && held == Shared {
				l.owners[txn] = m
			}
			s.mu.Unlock()
			now := time.Now()
			flush(now)
			return nil
		}
		gen := l.gen
		l.waiters++
		s.mu.Unlock()

		now := time.Now()
		if blocker != conflictOwner {
			flush(now)
			blocker, blockStart = conflictOwner, now
		}
		// The conflicting owner must finish (or step-release) before
		// us: a lock-order dependency.
		err := txn.AddDep(conflictOwner, false)
		if err == nil {
			// No blocker is passed: one event per (waiter, blocker) is
			// coalesced across wake-ups and emitted by flush.
			err = t.env.Wait(txn, nil, &deadline, gen, nil)
		}
		if err != nil {
			t.doneWaiting(s, k, txn, true)
			flush(time.Now())
			return err
		}
		// Keep any upgrade mark across the re-check loop: the wait
		// continues until granted or terminal.
		t.doneWaiting(s, k, txn, false)
	}
}

// doneWaiting retires one wait registration; terminal additionally clears
// txn's published upgrade-wait mark (the wait will not resume).
func (t *Table) doneWaiting(s *shard, k core.Key, txn *core.Txn, terminal bool) {
	s.mu.Lock()
	if l := s.locks[k]; l != nil {
		l.waiters--
		if terminal && l.upgrading != nil {
			delete(l.upgrading, txn)
		}
		if l.waiters == 0 && len(l.owners) == 0 {
			delete(s.locks, k)
		}
	}
	s.mu.Unlock()
}

// Release drops txn's lock on k, waking waiters.
func (t *Table) Release(txn *core.Txn, k core.Key) {
	s := t.shardFor(k)
	s.mu.Lock()
	l := s.locks[k]
	if l != nil {
		if _, ok := l.owners[txn]; ok {
			delete(l.owners, txn)
			if l.upgrading != nil {
				delete(l.upgrading, txn)
			}
			close(l.gen)
			l.gen = make(chan struct{})
			if l.waiters == 0 && len(l.owners) == 0 {
				delete(s.locks, k)
			}
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
	l := s.locks[k]
	if l == nil {
		return false
	}
	_, ok := l.owners[txn]
	return ok
}
