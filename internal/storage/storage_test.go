package storage

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestChainCreateAndLookup(t *testing.T) {
	s := New(4)
	k := core.K("t", "x")
	if s.Lookup(k) != nil {
		t.Fatal("lookup created a chain")
	}
	c := s.Chain(k)
	if c == nil || s.Chain(k) != c {
		t.Fatal("chain not stable")
	}
	if s.Lookup(k) != c {
		t.Fatal("lookup missed")
	}
	if s.Keys() != 1 {
		t.Fatalf("keys %d", s.Keys())
	}
}

func TestShardIndexStable(t *testing.T) {
	s := New(8)
	k := core.K("a", "b")
	i := s.ShardIndex(k)
	for n := 0; n < 10; n++ {
		if s.ShardIndex(k) != i {
			t.Fatal("unstable shard index")
		}
	}
	if i < 0 || i >= 8 {
		t.Fatalf("out of range %d", i)
	}
}

func TestForEachVisitsAll(t *testing.T) {
	s := New(3)
	for i := 0; i < 50; i++ {
		s.Chain(core.KeyOf("t", i))
	}
	n := 0
	s.ForEach(func(*core.Chain) { n++ })
	if n != 50 {
		t.Fatalf("visited %d", n)
	}
}

func TestConcurrentChainCreation(t *testing.T) {
	s := New(4)
	var wg sync.WaitGroup
	chains := make([]*core.Chain, 32)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chains[i] = s.Chain(core.K("t", "same"))
		}(w)
	}
	wg.Wait()
	for _, c := range chains {
		if c != chains[0] {
			t.Fatal("duplicate chain for one key")
		}
	}
}

// TestForEachVisitsEachChainExactlyOnce: shard iteration must neither skip
// nor double-count a chain even when keys collide onto few shards.
func TestForEachVisitsEachChainExactlyOnce(t *testing.T) {
	s := New(2) // few shards: many keys per shard
	const n = 200
	want := make(map[*core.Chain]int, n)
	for i := 0; i < n; i++ {
		want[s.Chain(core.KeyOf("t", i))] = 0
	}
	s.ForEach(func(c *core.Chain) {
		if _, ok := want[c]; !ok {
			t.Fatal("ForEach produced an unknown chain")
		}
		want[c]++
	})
	for c, seen := range want {
		if seen != 1 {
			t.Fatalf("chain %p visited %d times", c, seen)
		}
	}
	if s.Keys() != n {
		t.Fatalf("Keys() = %d, want %d", s.Keys(), n)
	}
}

// TestForEachDuringConcurrentCreation: iterating while other goroutines
// create chains must not deadlock or miss pre-existing chains (ForEach
// snapshots each shard; chains created mid-iteration may or may not appear).
func TestForEachDuringConcurrentCreation(t *testing.T) {
	s := New(4)
	const pre = 64
	existing := make(map[*core.Chain]bool, pre)
	for i := 0; i < pre; i++ {
		existing[s.Chain(core.KeyOf("pre", i))] = true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			// Bounded creation: enough churn to overlap every ForEach
			// pass without ballooning the store.
			for i := 0; i < 5000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Chain(core.KeyOf(fmt.Sprintf("new%d", base), i%500))
			}
		}(w)
	}
	for round := 0; round < 20; round++ {
		seen := make(map[*core.Chain]bool)
		s.ForEach(func(c *core.Chain) {
			if seen[c] {
				t.Error("chain visited twice in one pass")
			}
			seen[c] = true
		})
		for c := range existing {
			if !seen[c] {
				t.Fatal("pre-existing chain missed during concurrent creation")
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestStoreGC(t *testing.T) {
	s := New(2)
	for i := 0; i < 10; i++ {
		c := s.Chain(core.KeyOf("t", i))
		c.Lock()
		for v := uint64(1); v <= 5; v++ {
			w := core.NewTxn(uint64(i)*10+v, "w", 0, 0)
			w.MarkCommitted(v * 10)
			c.Install(&core.Version{Writer: w, Value: []byte(fmt.Sprint(v))})
		}
		c.Unlock()
		s.MarkGC(c) // as the engine does for a chain it grows past one version
	}
	pruned := s.GCPending(35) // newest <= 35 is ts 30: ts 10, 20 reclaimable
	if pruned != 10*2 {
		t.Fatalf("pruned %d, want 20", pruned)
	}
	// Idempotent: the chains, still holding three versions, are marked
	// again, and a second pass at the same watermark prunes nothing.
	if again := s.GCPending(35); again != 0 {
		t.Fatalf("second GC pruned %d", again)
	}
}

// TestGCKeepsPendingAndWatermarkVersion: GC must preserve (a) every pending
// version regardless of age, and (b) the newest committed version at or
// below the watermark — the version a reader snapshotted at the watermark
// still needs.
func TestGCKeepsPendingAndWatermarkVersion(t *testing.T) {
	s := New(1)
	c := s.Chain(core.K("t", "x"))
	c.Lock()
	for _, ts := range []uint64{10, 20, 30} {
		w := core.NewTxn(ts, "w", 0, 0)
		w.MarkCommitted(ts)
		c.Install(&core.Version{Writer: w, Value: []byte(fmt.Sprint(ts))})
	}
	pending := &core.Version{Writer: core.NewTxn(99, "w", 0, 40), Value: []byte("pending")}
	c.Install(pending)
	c.Unlock()
	s.MarkGC(c) // each pass marks it again: it keeps more than one version

	// Watermark below every commit: nothing reclaimable.
	if pruned := s.GCPending(5); pruned != 0 {
		t.Fatalf("GCPending(5) pruned %d, want 0", pruned)
	}
	// Watermark at 25: newest committed <= 25 is ts 20, so only ts 10 goes.
	if pruned := s.GCPending(25); pruned != 1 {
		t.Fatalf("GCPending(25) pruned %d, want 1", pruned)
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("after GCPending(25): %d versions, want 3 (20, 30, pending)", n)
	}
	// Watermark above everything: ts 30 is the snapshot floor, ts 20 goes;
	// the pending version must survive any watermark.
	if pruned := s.GCPending(100); pruned != 1 {
		t.Fatalf("GCPending(100) pruned %d, want 1", pruned)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("after GCPending(100): %d versions, want 2 (30, pending)", n)
	}
	c.Lock()
	v := c.LatestCommitted()
	c.Unlock()
	if v == nil || string(v.Value) != "30" {
		t.Fatalf("latest committed after GC = %v", v)
	}
	if !pending.Pending() {
		t.Fatal("pending version lost its state")
	}
}

func TestZeroShardsClamped(t *testing.T) {
	s := New(0)
	if len(s.shards) != 1 {
		t.Fatalf("shards %d", len(s.shards))
	}
	s.Chain(core.K("a", "b")) // must not panic
}
