package core

import (
	"sync"
	"sync/atomic"
)

// Version is one write of a key. A version is pending while its writer is
// Active; it becomes part of the committed history when the writer commits
// (CommitTS is then the writer's commit timestamp) and disappears when the
// writer aborts.
type Version struct {
	// Writer is the transaction that installed this version.
	Writer *Txn
	// Value is the written value. For a Promise version it is nil until
	// the promised write occurs.
	Value []byte
	// TS is the multiversion-timestamp-ordering timestamp of the write
	// (the writer's TSO timestamp); 0 for versions written under other CC
	// mechanisms.
	TS uint64
	// RTS is the largest TSO timestamp of any reader that read this
	// version; a TSO writer inserting a version immediately before this
	// one must abort if its timestamp is below RTS (it would invalidate
	// that read). Guarded by the chain mutex.
	RTS uint64

	// Promise marks a placeholder installed at start time by a TSO
	// transaction that declared it will write this key (§4.4.4). Readers
	// that select a promise block on Ready until the value is written.
	Promise bool
	ready   chan struct{}

	stepCommitted atomic.Bool
}

// CommitTS returns the writer's commit timestamp (0 if not committed).
func (v *Version) CommitTS() uint64 { return v.Writer.CommitTS() }

// Committed reports whether the writing transaction committed.
func (v *Version) Committed() bool { return v.Writer.State() == Committed }

// Pending reports whether the writing transaction is still active.
func (v *Version) Pending() bool { return v.Writer.State() == Active }

// StepCommitted reports whether Runtime Pipelining has step-committed this
// version: the writer finished the pipeline step in which the write occurred,
// exposing the (still uncommitted) value to pipeline successors.
func (v *Version) StepCommitted() bool { return v.stepCommitted.Load() }

// MarkStepCommitted exposes the version to pipeline successors.
func (v *Version) MarkStepCommitted() { v.stepCommitted.Store(true) }

// Ready returns a channel closed when a promised value has been written (or
// the promising writer aborted). For ordinary versions it is nil.
func (v *Version) Ready() <-chan struct{} { return v.ready }

// Fulfill installs the promised value. The chain mutex must be held.
func (v *Version) Fulfill(value []byte) {
	v.Value = value
	v.Promise = false
	if v.ready != nil {
		close(v.ready)
	}
}

// ReadRec records a read for SSI anti-dependency (pivot) detection and for
// TSO read-timestamp maintenance.
type ReadRec struct {
	T *Txn
	// SnapshotTS is the timestamp the reader's snapshot was taken at.
	SnapshotTS uint64
	// Batch is the opaque SSI/TSO batch the reader belonged to (nil when
	// the reading CC does not batch).
	Batch any
}

// Chain is the multiversioned value chain of one key: every committed and
// pending write, plus recent-reader bookkeeping. The engine locks the chain
// around the bottom-up AmendRead / PostWrite passes, so CC mechanisms may
// access all fields without further synchronization — but must never block
// or take other chain locks while holding it.
type Chain struct {
	Key Key
	// Shard is the index of the storage shard holding this chain, memoized
	// at creation so hot paths (commit WAL grouping, checkpoint, GC marking)
	// never re-hash the key. Written once by storage before the chain is
	// published; read-only afterwards.
	Shard int
	// Hash is Key.Hash(), memoized at creation so the storage index
	// compares it before the key and regrows without re-hashing. Written
	// once by storage before the chain is published; read-only afterwards.
	Hash uint64

	// gcPending dedups membership in the storage layer's pending-GC list: a
	// chain is enqueued only on a false->true transition. See Store.MarkGC.
	gcPending atomic.Bool

	mu sync.Mutex
	// versions in install order. Committed versions are totally ordered
	// by CommitTS; because commit timestamps are drawn at commit time
	// from a monotonic oracle, helpers scan rather than assume sortedness.
	versions []*Version
	readers  []ReadRec
}

// NewChain creates an empty chain for key k.
func NewChain(k Key) *Chain { return &Chain{Key: k} }

// Lock acquires the chain mutex.
func (c *Chain) Lock() { c.mu.Lock() }

// Unlock releases the chain mutex.
func (c *Chain) Unlock() { c.mu.Unlock() }

// Versions returns the version slice. The chain mutex must be held; the
// slice must not be retained past Unlock.
func (c *Chain) Versions() []*Version { return c.versions }

// Install appends a pending version and returns the resulting chain length,
// so callers can flag multi-version chains for incremental GC after releasing
// the lock. The chain mutex must be held.
func (c *Chain) Install(v *Version) int {
	c.versions = append(c.versions, v)
	return len(c.versions)
}

// TryEnqueueGC flips the pending-GC flag and reports whether this caller won
// the false->true transition (and so must enqueue the chain). Safe without
// the chain mutex.
func (c *Chain) TryEnqueueGC() bool { return c.gcPending.CompareAndSwap(false, true) }

// ClearGCPending resets the pending-GC flag; the incremental collector calls
// it before scanning so any concurrent install re-enqueues the chain.
func (c *Chain) ClearGCPending() { c.gcPending.Store(false) }

// InstallPromise appends a promise placeholder for writer t with TSO
// timestamp ts and returns it. The chain mutex must be held. The promise
// retains the writer pointer, so the writer becomes shared.
func (c *Chain) InstallPromise(t *Txn, ts uint64) *Version {
	t.MarkShared()
	v := &Version{Writer: t, TS: ts, Promise: true, ready: make(chan struct{})}
	c.versions = append(c.versions, v)
	return v
}

// Remove deletes a version (abort path). The chain mutex must be held. If
// the version was an unfulfilled promise its waiters are woken.
func (c *Chain) Remove(v *Version) {
	for i, x := range c.versions {
		if x == v {
			c.versions = append(c.versions[:i], c.versions[i+1:]...)
			break
		}
	}
	if v.Promise && v.ready != nil {
		v.Promise = false
		close(v.ready)
	}
}

// VersionBy returns the version installed by t, if any. The chain mutex must
// be held.
func (c *Chain) VersionBy(t *Txn) *Version {
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].Writer == t {
			return c.versions[i]
		}
	}
	return nil
}

// LatestCommitted returns the committed version with the largest commit
// timestamp, or nil. The chain mutex must be held.
func (c *Chain) LatestCommitted() *Version {
	var best *Version
	var bestTS uint64
	for _, v := range c.versions {
		if v.Committed() {
			if ts := v.CommitTS(); ts >= bestTS {
				best, bestTS = v, ts
			}
		}
	}
	return best
}

// LatestCommittedBefore returns the committed version with the largest
// commit timestamp <= ts, or nil (snapshot read). The chain mutex must be
// held.
func (c *Chain) LatestCommittedBefore(ts uint64) *Version {
	var best *Version
	var bestTS uint64
	for _, v := range c.versions {
		if v.Committed() {
			if cts := v.CommitTS(); cts <= ts && cts >= bestTS {
				best, bestTS = v, cts
			}
		}
	}
	return best
}

// RecordReader registers a read for anti-dependency / RTS bookkeeping.
// Records are pruned only when provably irrelevant to any current or future
// writer: aborted readers, and committed readers whose commit timestamp is
// below the watermark (they cannot be concurrent with any active
// transaction). watermark is asked only when a prune is due — computing it
// scans the active transactions — and nil means 0. The chain mutex must be
// held.
func (c *Chain) RecordReader(r ReadRec, watermark func() uint64) {
	// The reader's pointer is retained in the chain and inspected by future
	// writers; it must never be recycled while reachable here.
	r.T.MarkShared()
	if len(c.readers) > 32 {
		var wm uint64
		if watermark != nil {
			wm = watermark()
		}
		live := c.readers[:0]
		for _, rr := range c.readers {
			switch rr.T.State() {
			case Aborted:
				continue
			case Committed:
				if rr.T.CommitTS() < wm {
					continue
				}
			}
			live = append(live, rr)
		}
		c.readers = live
	}
	c.readers = append(c.readers, r)
}

// Readers returns the recent-reader records. The chain mutex must be held.
func (c *Chain) Readers() []ReadRec { return c.readers }

// GCStep removes committed versions superseded by another committed version
// whose commit timestamp is still below the watermark (the minimum begin
// timestamp of any active transaction). Every active or future reader's
// snapshot is at or above the watermark, so such versions can never be read
// again. It returns the number of versions pruned and the number remaining,
// letting the incremental collector decide whether the chain needs to stay
// on the pending list (remaining > 1 means future watermark advances may
// prune more).
func (c *Chain) GCStep(watermark uint64) (pruned, remaining int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Find the newest committed version at or below the watermark; every
	// older committed version is unreachable.
	var keepTS uint64
	found := false
	for _, v := range c.versions {
		if v.Committed() {
			if cts := v.CommitTS(); cts <= watermark && cts >= keepTS {
				keepTS, found = cts, true
			}
		}
	}
	if !found {
		return 0, len(c.versions)
	}
	live := c.versions[:0]
	for _, v := range c.versions {
		if v.Committed() && v.CommitTS() < keepTS {
			pruned++
			continue
		}
		live = append(live, v)
	}
	// Release the pruned tail so version values don't leak via the backing
	// array.
	for i := len(live); i < len(c.versions); i++ {
		c.versions[i] = nil
	}
	c.versions = live
	return pruned, len(live)
}

// Len returns the number of versions (committed + pending).
func (c *Chain) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.versions)
}
