package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestLookupDuringGrowth: two creators race to create the same fresh keys of
// one shard, doubling its table several times, while readers look up keys
// whose Chain call has already returned. Every such lookup, by Lookup or by
// Chain, must return that same chain, and no key may get two chains.
func TestLookupDuringGrowth(t *testing.T) {
	const n = 64 * initialSlots // from 64 slots to 8192: seven doublings
	s := New(1)
	var created [2][n]*core.Chain
	var done atomic.Int64 // keys 0..done-1 of creator 0 have returned
	var creators, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		creators.Add(1)
		go func(w int) {
			defer creators.Done()
			for i := 0; i < n; i++ {
				created[w][i] = s.Chain(core.KeyOf("t", i))
				if w == 0 {
					done.Store(int64(i + 1))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := done.Load()
				if d == 0 {
					continue
				}
				i := rng.Intn(int(d))
				k, want := core.KeyOf("t", i), created[0][i]
				if got := s.Lookup(k); got != want {
					t.Errorf("Lookup(%v) = %p, want %p", k, got, want)
					return
				}
				if got := s.Chain(k); got != want {
					t.Errorf("Chain(%v) = %p, want %p", k, got, want)
					return
				}
			}
		}(int64(r))
	}
	creators.Wait()
	close(stop)
	readers.Wait()

	for i := 0; i < n; i++ {
		k := core.KeyOf("t", i)
		if created[0][i] == nil || created[0][i] != created[1][i] {
			t.Fatalf("key %v got two chains: %p and %p", k, created[0][i], created[1][i])
		}
		if got := s.Lookup(k); got != created[0][i] {
			t.Fatalf("Lookup(%v) after growth = %p, want %p", k, got, created[0][i])
		}
	}
	if got := s.Keys(); got != n {
		t.Fatalf("Keys() = %d, want %d", got, n)
	}
	visited := 0
	s.ForEach(func(*core.Chain) { visited++ })
	if visited != n {
		t.Fatalf("ForEach visited %d chains, want %d", visited, n)
	}
	if size := len(s.shards[0].table.Load().slots); size < 2*n {
		t.Fatalf("table has %d slots for %d chains, want at most half full", size, n)
	}
}

// TestAllocBudgetIndex: a Chain hit, a Lookup hit and a Lookup miss allocate
// nothing.
func TestAllocBudgetIndex(t *testing.T) {
	s := New(4)
	hit, miss := core.KeyOf("t", 1), core.KeyOf("t", 2)
	c := s.Chain(hit)
	for _, tc := range []struct {
		what string
		f    func()
	}{
		{"Chain hit", func() {
			if s.Chain(hit) != c {
				t.Fatal("Chain hit returned another chain")
			}
		}},
		{"Lookup hit", func() {
			if s.Lookup(hit) != c {
				t.Fatal("Lookup hit missed")
			}
		}},
		{"Lookup miss", func() {
			if s.Lookup(miss) != nil {
				t.Fatal("Lookup miss found a chain")
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, tc.f); got != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.what, got)
		}
	}
}

var sinkChain *core.Chain

// BenchmarkStoreChain: a Chain hit on 64k keys over 16 shards, the shape of
// the benchmark's storage probe. serial is one goroutine, bound by cache
// misses; parallel runs one goroutine per GOMAXPROCS, where the shard index
// shows what a hit costs other readers of the same shard.
func BenchmarkStoreChain(b *testing.B) {
	s := New(16)
	keys := make([]core.Key, 1<<16)
	for i := range keys {
		keys[i] = core.KeyOf("usertable", i)
		s.Chain(keys[i])
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkChain = s.Chain(keys[(i*40503)%len(keys)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var seed atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i, misses := int(seed.Add(1))*7919, 0
			for pb.Next() {
				if s.Chain(keys[(i*40503)%len(keys)]) == nil {
					misses++
				}
				i++
			}
			if misses > 0 {
				b.Errorf("%d Chain calls returned nil", misses)
			}
		})
	})
}
