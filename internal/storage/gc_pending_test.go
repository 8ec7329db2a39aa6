package storage

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// fill installs n committed versions at timestamps 10, 20, ... into a fresh
// chain for key (table, i) and returns it.
func fill(s *Store, i, n int) *core.Chain {
	c := s.Chain(core.KeyOf("t", i))
	c.Lock()
	for v := uint64(1); v <= uint64(n); v++ {
		w := core.NewTxn(uint64(i)*100+v, "w", 0, 0)
		w.MarkCommitted(v * 10)
		c.Install(&core.Version{Writer: w, Value: []byte(fmt.Sprint(v))})
	}
	c.Unlock()
	return c
}

// TestGCPendingScansOnlyMarkedChains: the incremental collector visits only
// chains enqueued via MarkGC; unmarked stale chains wait until they are
// marked. This is the property that keeps the background GC from
// re-scanning the whole store every tick.
func TestGCPendingScansOnlyMarkedChains(t *testing.T) {
	s := New(2)
	marked := fill(s, 0, 5)
	unmarked := fill(s, 1, 5)
	s.MarkGC(marked)

	if pruned := s.GCPending(100); pruned != 4 {
		t.Fatalf("GCPending pruned %d, want 4 (marked chain only)", pruned)
	}
	if n := marked.Len(); n != 1 {
		t.Fatalf("marked chain has %d versions, want 1", n)
	}
	if n := unmarked.Len(); n != 5 {
		t.Fatalf("unmarked chain has %d versions, want 5 (untouched)", n)
	}
	// Marked, the other chain is collected too.
	s.MarkGC(unmarked)
	if pruned := s.GCPending(100); pruned != 4 {
		t.Fatalf("GCPending pruned %d once the other chain was marked, want 4", pruned)
	}
}

// TestMarkGCDeduplicates: marking the same chain repeatedly before a
// collection enqueues it once — the pending flag is the dedup.
func TestMarkGCDeduplicates(t *testing.T) {
	s := New(1)
	c := fill(s, 0, 3)
	for i := 0; i < 10; i++ {
		s.MarkGC(c)
	}
	if pruned := s.GCPending(100); pruned != 2 {
		t.Fatalf("GCPending pruned %d, want 2", pruned)
	}
	// Queue fully drained: nothing left for a second pass.
	if pruned := s.GCPending(100); pruned != 0 {
		t.Fatalf("second GCPending pruned %d, want 0", pruned)
	}
}

// TestGCPendingRequeuesMultiVersionChains: a chain that still holds more
// than one version after a collection pass stays on the dirty queue, so a
// later pass (with an advanced watermark) prunes it without a fresh MarkGC.
func TestGCPendingRequeuesMultiVersionChains(t *testing.T) {
	s := New(1)
	c := fill(s, 0, 3) // commits at ts 10, 20, 30
	s.MarkGC(c)

	// Watermark 25: newest committed <= 25 is ts 20, only ts 10 reclaimable.
	if pruned := s.GCPending(25); pruned != 1 {
		t.Fatalf("GCPending(25) pruned %d, want 1", pruned)
	}
	// Two versions remain, so the chain must have been re-enqueued: the next
	// pass at a higher watermark prunes ts 20 with no new MarkGC call.
	if pruned := s.GCPending(100); pruned != 1 {
		t.Fatalf("GCPending(100) pruned %d, want 1 (chain should have been requeued)", pruned)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("chain has %d versions, want 1", n)
	}
	// Down to a single version the chain finally leaves the queue.
	if pruned := s.GCPending(1000); pruned != 0 {
		t.Fatalf("GCPending(1000) pruned %d, want 0 (single-version chain must drop off the queue)", pruned)
	}
}

// TestMarkGCDuringCollection: a chain marked while a collection pass is
// mid-scan (flag already cleared) lands on the queue for the next pass
// rather than being lost — the install-vs-collect race the clear-before-scan
// ordering exists for.
func TestMarkGCDuringCollection(t *testing.T) {
	s := New(1)
	c := fill(s, 0, 2) // ts 10, 20
	s.MarkGC(c)
	if pruned := s.GCPending(100); pruned != 1 {
		t.Fatalf("GCPending pruned %d, want 1", pruned)
	}

	// New version arrives after the pass; its installer re-marks the chain.
	c.Lock()
	w := core.NewTxn(999, "w", 0, 0)
	w.MarkCommitted(30)
	c.Install(&core.Version{Writer: w, Value: []byte("3")})
	c.Unlock()
	s.MarkGC(c)

	if pruned := s.GCPending(100); pruned != 1 {
		t.Fatalf("GCPending after re-mark pruned %d, want 1", pruned)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("chain has %d versions, want 1", n)
	}
}
