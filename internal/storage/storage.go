// Package storage implements Tebaldi's multiversion storage module: a store
// of version chains partitioned over data-server shards (§4.5.1), plus the
// background garbage collector that prunes stale versions (§4.5.3).
//
// The storage module is deliberately CC-agnostic: it keeps all committed and
// uncommitted writes of each object, and the CC tree decides which version a
// read returns (§4.3). CC metadata (locks, timestamps, version lists) is
// transient state in the concurrency control module, so reconfiguration and
// recovery can rebuild it without touching data (§5.5.1).
//
// Each shard indexes its chains in an insert-only open-addressing table of
// atomic slots. A reader loads the shard's current table and probes it with
// no lock and no atomic read-modify-write; a creator takes the shard mutex,
// probes again and fills an empty slot, and past half full it copies the
// chains into a table of twice the size and publishes that. All of this
// rests on one invariant: a chain, once in the store, never leaves it. GC
// prunes versions inside a chain, never the chain, so a slot, once filled,
// holds the same chain forever, an empty slot ends every probe for a key
// that is not there, and a reader still on a replaced table sees only
// chains that are also in its successor.
package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// initialSlots is the size of a shard's first table, a power of two.
const initialSlots = 64

// Store is a sharded multiversion key-value store. Each shard models one
// data server's partition.
type Store struct {
	shards []*Shard
}

// Shard holds one data server's version chains, plus the list of chains
// flagged as needing garbage collection (see MarkGC).
type Shard struct {
	// table is the current chain index. Readers load it without a lock;
	// only a creator holding mu replaces it.
	table atomic.Pointer[table]

	mu    sync.Mutex
	count int // chains in the index
	gcq   []*core.Chain
}

// table is an open-addressing hash table with linear probing. A slot goes
// from nil to a chain once and never changes again.
type table struct {
	mask  uint64
	slots []atomic.Pointer[core.Chain]
}

func newTable(size int) *table {
	return &table{mask: uint64(size - 1), slots: make([]atomic.Pointer[core.Chain], size)}
}

// find returns the chain of k (hash h) in t, or nil at the first empty slot.
func (t *table) find(k core.Key, h uint64) *core.Chain {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		c := t.slots[i].Load()
		if c == nil || c.Hash == h && c.Key == k {
			return c
		}
	}
}

// put stores c in the first empty slot of its probe sequence. Only a
// creator holding the shard mutex calls it, on a table with room.
func (t *table) put(c *core.Chain) {
	i := c.Hash & t.mask
	for t.slots[i].Load() != nil {
		i = (i + 1) & t.mask
	}
	t.slots[i].Store(c)
}

// New creates a store with n shards (n >= 1).
func New(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{shards: make([]*Shard, n)}
	for i := range s.shards {
		s.shards[i] = &Shard{}
		s.shards[i].table.Store(newTable(initialSlots))
	}
	return s
}

// ShardIndex returns the data server owning key k.
func (s *Store) ShardIndex(k core.Key) int { return s.shardOf(k.Hash()) }

// shardOf maps the high 32 bits of the placement hash onto the shards.
func (s *Store) shardOf(h uint64) int {
	return int((h >> 32) * uint64(len(s.shards)) >> 32)
}

// Chain returns the version chain for k, creating it if absent.
func (s *Store) Chain(k core.Key) *core.Chain {
	h := k.Hash()
	idx := s.shardOf(h)
	sh := s.shards[idx]
	if c := sh.table.Load().find(k, h); c != nil {
		return c
	}
	return sh.create(k, h, idx)
}

// create is Chain's slow path: under the shard mutex it probes the current
// table again (the reader may have probed a replaced one, or lost a race
// with another creator) and inserts a new chain if k is still absent.
func (sh *Shard) create(k core.Key, h uint64, idx int) *core.Chain {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.table.Load()
	if c := t.find(k, h); c != nil {
		return c
	}
	// At most half full, a linear probe stays short and always meets an
	// empty slot.
	if 2*(sh.count+1) > len(t.slots) {
		grown := newTable(2 * len(t.slots))
		for i := range t.slots {
			if c := t.slots[i].Load(); c != nil {
				grown.put(c)
			}
		}
		sh.table.Store(grown)
		t = grown
	}
	c := core.NewChain(k)
	c.Hash = h
	c.Shard = idx
	t.put(c)
	sh.count++
	return c
}

// Lookup returns the chain for k without creating it.
func (s *Store) Lookup(k core.Key) *core.Chain {
	h := k.Hash()
	return s.shards[s.shardOf(h)].table.Load().find(k, h)
}

// ForEach visits every chain (a checkpoint's snapshot): one table
// snapshot per shard, so each chain at most once, and every chain created
// before the call. Chains created during the call may or may not appear.
func (s *Store) ForEach(f func(*core.Chain)) {
	for _, sh := range s.shards {
		t := sh.table.Load()
		for i := range t.slots {
			if c := t.slots[i].Load(); c != nil {
				f(c)
			}
		}
	}
}

// MarkGC flags a chain as holding (or about to hold) more than one version,
// enqueuing it for the next incremental GC pass. The engine calls it after
// releasing the chain mutex (never while holding it — the shard mutex is
// ordered after the chain mutex here). Duplicate marks are absorbed by the
// chain's pending flag, so the queue holds each chain at most once per drain
// cycle.
func (s *Store) MarkGC(c *core.Chain) {
	if !c.TryEnqueueGC() {
		return
	}
	sh := s.shards[c.Shard]
	sh.mu.Lock()
	sh.gcq = append(sh.gcq, c)
	sh.mu.Unlock()
}

// GCPending prunes only the chains flagged by MarkGC since the last pass,
// re-flagging any that still hold multiple versions (a pending writer or a
// committed version above the watermark may become prunable later). This is
// what the background collector runs: its cost is proportional to the hot
// write set, not the keyspace — the previous full-keyspace scan every
// interval was the single largest CPU consumer in YCSB profiles. Returns
// versions pruned.
//
// A committed version is reclaimed when a newer committed version exists at
// or below the watermark (the minimum begin timestamp among active
// transactions), so no active or future snapshot can reach it. This is the
// epoch rule of §4.5.3 with the epoch boundary expressed as a timestamp
// watermark: all CCs in this codebase order reads by oracle timestamps, so
// "every CC confirms it will never order a transaction before the epoch"
// reduces to the watermark comparison.
func (s *Store) GCPending(watermark uint64) int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		q := sh.gcq
		sh.gcq = nil
		sh.mu.Unlock()
		for _, c := range q {
			// Clear before scanning: an install racing with this scan
			// either lands before it (and is seen) or re-enqueues the
			// chain afterwards.
			c.ClearGCPending()
			pruned, remaining := c.GCStep(watermark)
			total += pruned
			if remaining > 1 {
				s.MarkGC(c)
			}
		}
	}
	return total
}

// Keys returns the number of distinct keys stored.
func (s *Store) Keys() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.count
		sh.mu.Unlock()
	}
	return n
}
