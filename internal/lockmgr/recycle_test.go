package lockmgr

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// Entry recycling: an entry leaves its shard's map when it has neither owner
// nor waiter and is then reused for whatever key is granted next. These tests
// pin that a reused entry never carries state across keys, that a parked
// waiter is never stranded on one, and that the uncontended cycle allocates
// nothing once the table is warm.

// sameShardKeys returns n distinct keys that hash to one shard of tbl.
func sameShardKeys(tbl *Table, n int) []core.Key {
	first := core.K("t", "0")
	keys := []core.Key{first}
	for i := 1; len(keys) < n; i++ {
		if k := core.K("t", strconv.Itoa(i)); tbl.shardFor(k) == tbl.shardFor(first) {
			keys = append(keys, k)
		}
	}
	return keys
}

// tableState counts the live and the recycled entries of tbl and fails the
// test if a recycled entry still carries an owner, a waiter or a channel.
func tableState(t *testing.T, tbl *Table) (live, free int) {
	t.Helper()
	for i := range tbl.shards {
		s := &tbl.shards[i]
		s.mu.Lock()
		live += len(s.locks)
		for e := s.free; e != nil; e = e.next {
			free++
			if len(e.owners) != 0 || e.waiters != 0 || e.wake != (core.Wake{}) {
				t.Errorf("recycled entry not clean: %d owners, %d waiters, wake %v", len(e.owners), e.waiters, e.wake != (core.Wake{}))
			}
			for _, o := range append(e.owners[:cap(e.owners):cap(e.owners)], e.inline[:]...) {
				if o.txn != nil {
					t.Errorf("recycled entry still points at txn %d", o.txn.ID)
				}
			}
		}
		s.mu.Unlock()
	}
	return live, free
}

// waitParked blocks until n waiters are registered on k.
func waitParked(t *testing.T, tbl *Table, k core.Key, n int) {
	t.Helper()
	s := tbl.shardFor(k)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		s.mu.Lock()
		e := s.locks[k]
		parked := e != nil && e.waiters == n
		s.mu.Unlock()
		if parked {
			return
		}
	}
	t.Fatalf("no %d waiters parked on %v", n, k)
}

// TestRecycleMutualExclusion: goroutines X-lock a handful of keys of one
// shard, bump a plain int per key, and release, so entries are dropped and
// reused for other keys all the time. A lost update means two owners held X
// at once; afterwards the map is empty and the free list no longer than the
// key set.
func TestRecycleMutualExclusion(t *testing.T) {
	tbl := New(env(5*time.Second), nil)
	keys := sameShardKeys(tbl, 5)
	counters := make([]int, len(keys)) // each guarded by its key's X lock only
	const workers, iters = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx := txn(base*10000+uint64(i), "w")
				j := (int(base) + i) % len(keys)
				if err := tbl.Acquire(tx, keys[j], Exclusive); err != nil {
					t.Error(err)
					return
				}
				counters[j]++
				tbl.Release(tx, keys[j])
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != workers*iters {
		t.Fatalf("lost updates: %d != %d (mutual exclusion broken)", total, workers*iters)
	}
	live, free := tableState(t, tbl)
	if live != 0 || free > len(keys) {
		t.Fatalf("after the run: %d live entries (want 0), %d recycled (want <= %d)", live, free, len(keys))
	}
}

// TestRecycleNoLostWakeup: a waiter parks on k, the owner releases, and a
// third transaction takes and drops k and then other keys of the shard —
// which reuse k's entry if it was dropped — before or while the waiter
// re-checks. Whoever wins the race for k, the waiter must be granted well
// within the timeout.
func TestRecycleNoLostWakeup(t *testing.T) {
	tbl := New(env(10*time.Second), nil)
	keys := sameShardKeys(tbl, 4)
	k, others := keys[0], keys[1:]
	for round := uint64(0); round < 200; round++ {
		a, w, c := txn(3*round+1, "a"), txn(3*round+2, "w"), txn(3*round+3, "c")
		if err := tbl.Acquire(a, k, Exclusive); err != nil {
			t.Fatal(err)
		}
		granted := make(chan error, 1)
		go func() {
			err := tbl.Acquire(w, k, Exclusive)
			if err == nil {
				tbl.Release(w, k)
			}
			granted <- err
		}()
		waitParked(t, tbl, k, 1)
		tbl.Release(a, k)
		if err := tbl.Acquire(c, k, Exclusive); err != nil {
			t.Fatal(err)
		}
		tbl.Release(c, k)
		for _, o := range others {
			if err := tbl.Acquire(c, o, Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case err := <-granted:
			if err != nil {
				t.Fatalf("round %d: waiter: %v", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: waiter still parked after its blocker released (lost wake-up)", round)
		}
		tbl.ReleaseAll(c, others)
	}
	if live, _ := tableState(t, tbl); live != 0 {
		t.Fatalf("%d entries left in the map", live)
	}
}

// TestRecycleAfterWaiterTimeout: a waiter that gives up leaves the entry's
// waiter count balanced, so the owner's release drops the entry, and the next
// grant in the shard reuses it for a different key.
func TestRecycleAfterWaiterTimeout(t *testing.T) {
	tbl := New(env(20*time.Millisecond), nil)
	keys := sameShardKeys(tbl, 2)
	k, other := keys[0], keys[1]
	s := tbl.shardFor(k)
	a, w, c := txn(1, "a"), txn(2, "w"), txn(3, "c")
	if err := tbl.Acquire(a, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Acquire(w, k, Shared); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	s.mu.Lock()
	e := s.locks[k]
	s.mu.Unlock()
	if e == nil || e.waiters != 0 {
		t.Fatalf("after the timeout: entry %v, want present with 0 waiters", e)
	}
	tbl.Release(a, k)
	if live, free := tableState(t, tbl); live != 0 || free != 1 {
		t.Fatalf("after the release: %d live, %d recycled, want 0 and 1", live, free)
	}
	if err := tbl.Acquire(c, other, Exclusive); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	reused := s.locks[other] == e
	s.mu.Unlock()
	if !reused {
		t.Fatal("the dropped entry was not reused for the next key of the shard")
	}
	if tbl.Holds(a, other) || tbl.Holds(w, other) || !tbl.Holds(c, other) {
		t.Fatal("reused entry carries the wrong owners")
	}
}

// TestRecycleAfterSpill: more shared owners than the inline array holds spill
// to a heap slice; once they are gone the entry pins none of them, in either
// backing, and serves the next key with the larger backing it kept.
func TestRecycleAfterSpill(t *testing.T) {
	tbl := New(env(time.Second), nil)
	keys := sameShardKeys(tbl, 2)
	var readers []*core.Txn
	for i := uint64(0); i < inlineOwners+2; i++ {
		r := txn(i+1, "r")
		readers = append(readers, r)
		if err := tbl.Acquire(r, keys[0], Shared); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range readers {
		if !tbl.Holds(r, keys[0]) {
			t.Fatalf("reader %d lost its hold in the spill", r.ID)
		}
		tbl.Release(r, keys[0])
	}
	if live, free := tableState(t, tbl); live != 0 || free != 1 {
		t.Fatalf("%d live, %d recycled, want 0 and 1", live, free)
	}
	w := txn(100, "w")
	if err := tbl.Acquire(w, keys[1], Exclusive); err != nil {
		t.Fatal(err)
	}
	if tbl.Holds(readers[0], keys[1]) || !tbl.Holds(w, keys[1]) {
		t.Fatal("reused entry carries the wrong owners")
	}
}

// TestAllocBudgetAcquireRelease: on a warm table the uncontended cycle
// allocates nothing — no entry, no owner map, no wake channel — in either
// mode, on re-acquire and on upgrade. The style and the purpose are those of
// internal/engine/alloc_test.go.
func TestAllocBudgetAcquireRelease(t *testing.T) {
	tbl := New(env(time.Second), nil)
	k := core.K("t", "x")
	a := txn(1, "a")
	cycle := func(modes ...Mode) func() {
		return func() {
			for _, m := range modes {
				if err := tbl.Acquire(a, k, m); err != nil {
					t.Fatal(err)
				}
			}
			tbl.Release(a, k)
		}
	}
	for _, c := range []struct {
		what string
		f    func()
	}{
		{"shared", cycle(Shared)},
		{"exclusive", cycle(Exclusive)},
		{"re-acquire", cycle(Exclusive, Shared, Exclusive)},
		{"upgrade", cycle(Shared, Exclusive)},
	} {
		// AllocsPerRun's own warm-up call takes the shard's first entry
		// from the heap.
		if got := testing.AllocsPerRun(200, c.f); got != 0 {
			t.Errorf("%s acquire+release: %.1f allocs/op, want 0", c.what, got)
		}
	}
}

// BenchmarkAcquireRelease — the lock path on its own: one goroutine cycling
// an exclusive lock on its own key (0 allocs/op), and two goroutines fighting
// over one key, each iteration with a new transaction, where a blocked
// acquire also pays for its wake channel, its timer and its dependency edge.
func BenchmarkAcquireRelease(b *testing.B) {
	b.Run("uncontended", func(b *testing.B) {
		tbl := New(env(time.Second), nil)
		k := core.K("t", "x")
		a := txn(1, "a")
		cycle := func() {
			if err := tbl.Acquire(a, k, Exclusive); err != nil {
				b.Fatal(err)
			}
			tbl.Release(a, k)
		}
		cycle() // warm, so that -benchtime 1x prints the steady state too
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	})
	b.Run("contended", func(b *testing.B) {
		tbl := New(env(10*time.Second), nil)
		k := core.K("t", "x")
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := uint64(0); g < 2; g++ {
			wg.Add(1)
			go func(g uint64) {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					tx := txn(2*uint64(i)+g+1, "w")
					if err := tbl.Acquire(tx, k, Exclusive); err != nil {
						b.Error(err)
						return
					}
					tbl.Release(tx, k)
				}
			}(g)
		}
		wg.Wait()
	})
}
