package twopl

import (
	"testing"
	"time"

	"repro/internal/core"
)

// A held list goes back to heldPool when its transaction ends and serves
// the next one. These tests hold the two rules that makes safe: a reused
// list starts empty, and the pool keeps no key reachable.

func leaf(t *testing.T) *TwoPL {
	t.Helper()
	n := &core.Node{Types: []string{"w"}}
	p := New(&core.Env{LockTimeout: time.Second}, n)
	n.CC = p
	n.FinalizeRouting()
	return p
}

func begin(t *testing.T, p *TwoPL, id uint64) *core.Txn {
	t.Helper()
	txn := core.NewTxn(id, "w", 0, id)
	txn.Path = p.node.AppendPath(txn, nil)
	txn.Slots = make([]any, len(txn.Path))
	if err := p.Begin(txn); err != nil {
		t.Fatal(err)
	}
	return txn
}

// TestRecycledHeldListStartsEmpty: T1 takes 40 locks and commits; T2 takes
// one lock, usually in the list T1 grew, and aborts. T2's list holds its
// one key only, T1's returned array is zeroed, and afterwards nobody holds
// any lock. The cycle repeats because the pool may hand out a fresh list
// (a race-detector build drops a quarter of what is Put); at least one T2
// must have received T1's list.
func TestRecycledHeldListStartsEmpty(t *testing.T) {
	p := leaf(t)
	keys := make([]core.Key, 40)
	for i := range keys {
		keys[i] = core.KeyOf("t", i)
	}
	var txns []*core.Txn
	reused := 0
	for cycle := 0; cycle < 20; cycle++ {
		t1 := begin(t, p, uint64(2*cycle+1))
		for _, k := range keys {
			if err := p.PreWrite(t1, k); err != nil {
				t.Fatal(err)
			}
		}
		grown := p.slotOf(t1).held
		p.Commit(t1)
		if p.slotOf(t1).held != nil {
			t.Fatal("the ended transaction still points at its held list")
		}
		for i, k := range grown.keys[:cap(grown.keys)] {
			if k != (core.Key{}) {
				t.Fatalf("pooled held list keeps key %v at %d", k, i)
			}
		}

		t2 := begin(t, p, uint64(2*cycle+2))
		if err := p.PreRead(t2, keys[7]); err != nil {
			t.Fatal(err)
		}
		h := p.slotOf(t2).held
		if h == grown {
			reused++
		}
		if len(h.keys) != 1 || h.keys[0] != keys[7] {
			t.Fatalf("T2's held list is %v, want [%v]", h.keys, keys[7])
		}
		p.Abort(t2)
		txns = append(txns, t1, t2)
	}
	if reused == 0 {
		t.Fatal("no T2 received the list T1 returned")
	}
	for _, txn := range txns {
		for _, k := range keys {
			if p.locks.Holds(txn, k) {
				t.Fatalf("transaction %d still holds %v", txn.ID, k)
			}
		}
	}
}

// TestEndingTwiceLeavesTheListAlone: a second Commit or Abort of an ended
// transaction finds no held list, so it cannot empty the list the pool has
// since handed to another transaction and leak that transaction's locks.
func TestEndingTwiceLeavesTheListAlone(t *testing.T) {
	p := leaf(t)
	k := core.KeyOf("t", 1)
	t1 := begin(t, p, 1)
	if err := p.PreWrite(t1, k); err != nil {
		t.Fatal(err)
	}
	p.Commit(t1)
	t2 := begin(t, p, 2)
	if err := p.PreWrite(t2, k); err != nil {
		t.Fatal(err)
	}
	p.Abort(t1)
	p.Commit(t2)
	if p.locks.Holds(t2, k) {
		t.Fatal("T2 still holds its lock after committing")
	}
}
