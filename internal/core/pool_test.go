package core

import (
	"testing"
	"time"
)

// TestSharedFlagEscapePoints asserts that every operation which lets a *Txn
// escape to a foreign goroutine marks it shared — the reclamation rule that
// makes pooling safe (see the Txn doc comment). A missing mark here means a
// recycled transaction could be observed by a late reader.
func TestSharedFlagEscapePoints(t *testing.T) {
	t.Run("AddWrite", func(t *testing.T) {
		w := NewTxn(1, "w", 0, 1)
		ch := NewChain(K("t", "r"))
		v := &Version{Writer: w}
		ch.Lock()
		ch.Install(v)
		ch.Unlock()
		w.AddWrite(ch, v)
		if !w.Shared() {
			t.Fatal("AddWrite must mark the writer shared (versions retain Writer)")
		}
	})
	t.Run("InstallPromise", func(t *testing.T) {
		w := NewTxn(2, "w", 0, 1)
		ch := NewChain(K("t", "r"))
		ch.Lock()
		ch.InstallPromise(w, 5)
		ch.Unlock()
		if !w.Shared() {
			t.Fatal("InstallPromise must mark the writer shared")
		}
	})
	t.Run("RecordReader", func(t *testing.T) {
		r := NewTxn(3, "r", 0, 1)
		ch := NewChain(K("t", "r"))
		ch.Lock()
		ch.RecordReader(ReadRec{T: r, SnapshotTS: 1}, nil)
		ch.Unlock()
		if !r.Shared() {
			t.Fatal("RecordReader must mark the reader shared")
		}
	})
	t.Run("AddDep target", func(t *testing.T) {
		a := NewTxn(4, "a", 0, 1)
		b := NewTxn(5, "b", 0, 1)
		if err := a.AddDep(b, false); err != nil {
			t.Fatal(err)
		}
		if !b.Shared() {
			t.Fatal("AddDep must mark the target shared (its pointer enters a's dependency set)")
		}
		if a.Shared() {
			t.Fatal("AddDep must not mark the source shared")
		}
	})
}

// TestPutTxnEligibility asserts PutTxn recycles only finished, never-escaped
// transactions.
func TestPutTxnEligibility(t *testing.T) {
	active := NewTxn(10, "t", 0, 1)
	if PutTxn(active) {
		t.Fatal("PutTxn must refuse an Active transaction")
	}

	shared := NewTxn(11, "t", 0, 1)
	shared.MarkShared()
	shared.MarkCommitted(2)
	if PutTxn(shared) {
		t.Fatal("PutTxn must refuse a shared transaction")
	}

	clean := NewTxn(12, "t", 0, 1)
	clean.MarkCommitted(3)
	if !PutTxn(clean) {
		t.Fatal("PutTxn must recycle a finished, unshared transaction")
	}
}

// TestRefusedTxnDropsDepsAndWrites: a committed writer stays reachable
// through its versions' Writer field, so once PutTxn refuses it, it must not
// keep its dependency set (finished transactions) or its write list (versions
// the collector may already have pruned, and their values).
func TestRefusedTxnDropsDepsAndWrites(t *testing.T) {
	dep := NewTxn(13, "t", 0, 1)
	w := NewTxn(14, "t", 0, 1)
	if err := w.AddDep(dep, true); err != nil {
		t.Fatal(err)
	}
	w.AddWrite(&Chain{}, &Version{Writer: w})
	dep.MarkCommitted(2)
	w.MarkCommitted(3)
	if PutTxn(w) {
		t.Fatal("PutTxn must refuse a shared transaction")
	}
	if len(w.Deps()) > 0 || w.HasWrites() {
		t.Fatalf("refused committed transaction still holds %d deps and %d writes", len(w.Deps()), len(w.Writes()))
	}
}

// TestSharedWriterListsReused: PutTxn returns a refused writer's write list
// and dependency set to the pool emptied, with every element zeroed, and a
// later writer that takes them starts from empty lists. The cycle repeats
// because the pool may hand out fresh lists (a race-detector build drops a
// quarter of what is Put); at least one later writer must have received
// the earlier one's.
func TestSharedWriterListsReused(t *testing.T) {
	reused := 0
	for cycle := 0; cycle < 20; cycle++ {
		w := NewTxn(uint64(3*cycle+1), "t", 0, 1)
		for i := 0; i < 10; i++ {
			dep := NewTxn(uint64(1000*cycle+i+1000), "t", 0, 1)
			if err := w.AddDep(dep, i%2 == 0); err != nil {
				t.Fatal(err)
			}
			w.AddWrite(&Chain{}, &Version{Writer: w})
		}
		l := w.own
		w.MarkCommitted(2)
		if PutTxn(w) {
			t.Fatal("PutTxn must refuse a shared transaction")
		}
		if w.own != nil || len(l.writes) != 0 || len(l.deps) != 0 {
			t.Fatalf("the refused writer keeps its lists: %d writes, %d deps", len(l.writes), len(l.deps))
		}
		for _, wr := range l.writes[:cap(l.writes)] {
			if wr != (WriteRef{}) {
				t.Fatal("the pooled write list keeps a version reachable")
			}
		}
		for _, d := range l.deps[:cap(l.deps)] {
			if d != (Dep{}) {
				t.Fatal("the pooled dependency set keeps a transaction reachable")
			}
		}

		next := NewTxn(uint64(3*cycle+2), "t", 0, 1)
		v := &Version{Writer: next}
		next.AddWrite(&Chain{}, v)
		if next.own == l {
			reused++
		}
		if ws := next.Writes(); len(ws) != 1 || ws[0].V != v || len(next.Deps()) > 0 {
			t.Fatalf("the next writer starts with %d writes and %d deps, want its one write", len(ws), len(next.Deps()))
		}
	}
	if reused == 0 {
		t.Fatal("no later writer received the lists an earlier one returned")
	}
}

// TestGetTxnReset asserts a recycled transaction comes back fully reset:
// Active, no commit timestamp, no deps/writes, empty Path/Slots, and a Done
// channel that blocks again.
func TestGetTxnReset(t *testing.T) {
	old := GetTxn(20, "old", 7, 9)
	old.Path = append(old.Path, &Node{}, &Node{})
	old.Slots = append(old.Slots, "slot0", "slot1")
	// A waiter allocated the done channel; commit closes it.
	done := old.Done()
	old.MarkCommitted(10)
	<-done
	if !PutTxn(old) {
		t.Fatal("expected recycle")
	}

	// sync.Pool gives no identity guarantee; whatever comes back must obey
	// the reset contract.
	fresh := GetTxn(21, "fresh", 1, 2)
	if fresh.State() != Active || fresh.CommitTS() != 0 {
		t.Fatalf("fresh txn not Active/uncommitted: %v ts=%d", fresh.State(), fresh.CommitTS())
	}
	if fresh.Shared() {
		t.Fatal("fresh txn must not be shared")
	}
	if len(fresh.Path) != 0 || len(fresh.Slots) != 0 {
		t.Fatalf("fresh txn has stale Path/Slots: %d/%d", len(fresh.Path), len(fresh.Slots))
	}
	if len(fresh.Deps()) > 0 || fresh.HasWrites() {
		t.Fatal("fresh txn has stale deps/writes")
	}
	select {
	case <-fresh.Done():
		t.Fatal("fresh txn's Done channel is already closed")
	default:
	}
}

// TestDoneLazyAllocation asserts the Done channel contract across the lazy
// allocation: waiters registered before the finish are woken, and Done after
// the finish returns an already-closed channel without allocating per call.
func TestDoneLazyAllocation(t *testing.T) {
	w := NewTxn(30, "t", 0, 1)
	done := w.Done()
	go func() {
		time.Sleep(5 * time.Millisecond)
		w.MarkAborted()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by MarkAborted")
	}
	if c := w.Done(); c == nil {
		t.Fatal("Done after finish must return a closed channel, not nil")
	} else {
		select {
		case <-c:
		default:
			t.Fatal("Done after finish must be closed")
		}
	}

	// Never-waited-on transactions finish without ever allocating a channel.
	q := NewTxn(31, "t", 0, 1)
	q.MarkCommitted(2)
	select {
	case <-q.Done():
	default:
		t.Fatal("Done on a finished txn must be closed")
	}
}
