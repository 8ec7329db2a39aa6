// Package storage implements Tebaldi's multiversion storage module: a store
// of version chains partitioned over data-server shards (§4.5.1), plus the
// background garbage collector that prunes stale versions (§4.5.3).
//
// The storage module is deliberately CC-agnostic: it keeps all committed and
// uncommitted writes of each object, and the CC tree decides which version a
// read returns (§4.3). CC metadata (locks, timestamps, version lists) is
// transient state in the concurrency control module, so reconfiguration and
// recovery can rebuild it without touching data (§5.5.1).
package storage

import (
	"sync"

	"repro/internal/core"
)

// Store is a sharded multiversion key-value store. Each shard models one
// data server's partition.
type Store struct {
	shards []*Shard
}

// Shard holds one data server's version chains, plus the list of chains
// flagged as needing garbage collection (see MarkGC).
type Shard struct {
	mu     sync.RWMutex
	chains map[core.Key]*core.Chain
	gcq    []*core.Chain
}

// New creates a store with n shards (n >= 1).
func New(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{shards: make([]*Shard, n)}
	for i := range s.shards {
		s.shards[i] = &Shard{chains: make(map[core.Key]*core.Chain)}
	}
	return s
}

// ShardIndex returns the data server owning key k. The FNV-1a hash is
// inlined (core.Key.Hash32) so the lookup is allocation-free; it computes
// the same placement as the previous hash/fnv implementation.
func (s *Store) ShardIndex(k core.Key) int {
	return int(k.Hash32()) % len(s.shards)
}

// Chain returns the version chain for k, creating it if absent.
func (s *Store) Chain(k core.Key) *core.Chain {
	idx := s.ShardIndex(k)
	sh := s.shards[idx]
	sh.mu.RLock()
	c := sh.chains[k]
	sh.mu.RUnlock()
	if c != nil {
		return c
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c = sh.chains[k]; c == nil {
		c = core.NewChain(k)
		c.Shard = idx
		sh.chains[k] = c
	}
	return c
}

// Lookup returns the chain for k without creating it.
func (s *Store) Lookup(k core.Key) *core.Chain {
	sh := s.shards[s.ShardIndex(k)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.chains[k]
}

// ForEach visits every chain (full GC, recovery, checkpointing). The callback
// must not create new chains on this store.
func (s *Store) ForEach(f func(*core.Chain)) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		chains := make([]*core.Chain, 0, len(sh.chains))
		for _, c := range sh.chains {
			chains = append(chains, c)
		}
		sh.mu.RUnlock()
		for _, c := range chains {
			f(c)
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

// GC prunes every chain against the given watermark (the minimum begin
// timestamp among active transactions): a committed version is reclaimed
// when a newer committed version exists at or below the watermark, so no
// active or future snapshot can reach it. Returns versions pruned.
//
// This is the epoch rule of §4.5.3 with the epoch boundary expressed as a
// timestamp watermark: all CCs in this codebase order reads by oracle
// timestamps, so "every CC confirms it will never order a transaction before
// the epoch" reduces to the watermark comparison. The background collector
// uses the incremental GCPending instead; this full sweep remains for tests
// and explicit maintenance.
func (s *Store) GC(watermark uint64) int {
	total := 0
	s.ForEach(func(c *core.Chain) { total += c.GC(watermark) })
	return total
}

// Keys returns the number of distinct keys stored.
func (s *Store) Keys() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.chains)
		sh.mu.RUnlock()
	}
	return n
}
