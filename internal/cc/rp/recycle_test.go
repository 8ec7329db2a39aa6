package rp

import (
	"testing"
	"time"

	"repro/internal/core"
)

// A transaction's step buffers go back to ownPool when it ends and serve
// the next one, and a step advance empties them in place. These tests hold
// the rules that makes safe: a reused buffer starts empty, the pool keeps
// no key or version reachable, and each transaction releases only its own
// locks.

func leaf(t *testing.T) *RP {
	t.Helper()
	n := &core.Node{Types: []string{"w"}}
	env := &core.Env{LockTimeout: time.Second, Specs: map[string]*core.Spec{
		"w": {Name: "w", Tables: []string{"a", "b"}, WriteTables: []string{"a", "b"}},
	}}
	r := New(env, n)
	n.CC = r
	n.FinalizeRouting()
	return r
}

func begin(t *testing.T, r *RP, id uint64) *core.Txn {
	t.Helper()
	txn := core.NewTxn(id, "w", 0, id)
	txn.Path = r.node.AppendPath(txn, nil)
	txn.Slots = make([]any, len(txn.Path))
	if err := r.Begin(txn); err != nil {
		t.Fatal(err)
	}
	return txn
}

// write takes k's lock and records a version of it, as the engine's Write
// does around the chain install.
func write(t *testing.T, r *RP, txn *core.Txn, k core.Key) *core.Version {
	t.Helper()
	if err := r.PreWrite(txn, k); err != nil {
		t.Fatal(err)
	}
	v := &core.Version{Writer: txn}
	if err := r.PostWrite(txn, k, &core.Chain{}, v); err != nil {
		t.Fatal(err)
	}
	return v
}

// checkZeroed fails unless every element of b's arrays past their length,
// up to their capacity, is zero: nothing stale is reachable from them.
func checkZeroed(t *testing.T, b *stepBufs) {
	t.Helper()
	for i, k := range b.held[len(b.held):cap(b.held)] {
		if k != (core.Key{}) {
			t.Fatalf("held keeps key %v at %d", k, len(b.held)+i)
		}
	}
	for i, v := range b.written[len(b.written):cap(b.written)] {
		if v != nil {
			t.Fatalf("written keeps a version at %d", len(b.written)+i)
		}
	}
}

// TestRecycledStepBuffersStartEmpty: T1 writes 40 keys in one step and
// commits; T2 takes one lock, usually in the buffers T1 grew, and aborts.
// T2's buffers hold its one key only, T1's returned arrays are zeroed, and
// afterwards nobody holds any lock. The cycle repeats because the pool may
// hand out fresh buffers (a race-detector build drops a quarter of what is
// Put); at least one T2 must have received T1's.
func TestRecycledStepBuffersStartEmpty(t *testing.T) {
	r := leaf(t)
	keys := make([]core.Key, 40)
	for i := range keys {
		keys[i] = core.KeyOf("a", i)
	}
	var txns []*core.Txn
	reused := 0
	for cycle := 0; cycle < 20; cycle++ {
		t1 := begin(t, r, uint64(2*cycle+1))
		for _, k := range keys {
			write(t, r, t1, k)
		}
		grown := r.slotOf(t1).own
		r.Commit(t1)
		if r.slotOf(t1).own != nil {
			t.Fatal("the ended transaction still points at its step buffers")
		}
		if len(grown.held) != 0 || len(grown.written) != 0 {
			t.Fatalf("returned buffers hold %d keys and %d versions", len(grown.held), len(grown.written))
		}
		checkZeroed(t, grown)

		t2 := begin(t, r, uint64(2*cycle+2))
		if err := r.PreRead(t2, keys[7]); err != nil {
			t.Fatal(err)
		}
		b := r.slotOf(t2).own
		if b == grown {
			reused++
		}
		if len(b.held) != 1 || b.held[0] != keys[7] || len(b.written) != 0 {
			t.Fatalf("T2's buffers hold %v and %d versions, want [%v] and none", b.held, len(b.written), keys[7])
		}
		r.Abort(t2)
		txns = append(txns, t1, t2)
	}
	if reused == 0 {
		t.Fatal("no T2 received the buffers T1 returned")
	}
	for _, txn := range txns {
		for _, k := range keys {
			if r.locks.Holds(txn, k) {
				t.Fatalf("transaction %d still holds %v", txn.ID, k)
			}
		}
	}
}

// TestStepAdvanceEmptiesBuffersInPlace: entering a later step exposes the
// earlier step's writes, releases its locks and truncates both lists in the
// same arrays, so the new step's first lock is the list's only element.
func TestStepAdvanceEmptiesBuffersInPlace(t *testing.T) {
	r := leaf(t)
	txn := begin(t, r, 1)
	var versions []*core.Version
	for i := 0; i < 10; i++ {
		versions = append(versions, write(t, r, txn, core.KeyOf("a", i)))
	}
	b := r.slotOf(txn).own
	heldCap, writtenCap := cap(b.held), cap(b.written)

	kb := core.KeyOf("b", 0)
	if err := r.PreWrite(txn, kb); err != nil {
		t.Fatal(err)
	}
	if r.slotOf(txn).step() != r.analysis.Rank["b"] {
		t.Fatalf("step %d, want %d", r.slotOf(txn).step(), r.analysis.Rank["b"])
	}
	for i, v := range versions {
		if !v.StepCommitted() {
			t.Fatalf("write %d of the earlier step is not exposed", i)
		}
		if r.locks.Holds(txn, core.KeyOf("a", i)) {
			t.Fatalf("the earlier step's lock on a/%d is still held", i)
		}
	}
	if !r.locks.Holds(txn, kb) {
		t.Fatal("the new step's lock is not held")
	}
	if len(b.held) != 1 || b.held[0] != kb || len(b.written) != 0 {
		t.Fatalf("after the advance: held %v and %d versions, want [%v] and none", b.held, len(b.written), kb)
	}
	if cap(b.held) != heldCap || cap(b.written) != writtenCap {
		t.Fatal("the advance replaced the arrays instead of truncating them")
	}
	checkZeroed(t, b)

	r.Abort(txn)
	for i := 0; i < 10; i++ {
		if r.locks.Holds(txn, core.KeyOf("a", i)) {
			t.Fatalf("a/%d still held after abort", i)
		}
	}
	if r.locks.Holds(txn, kb) {
		t.Fatal("b/0 still held after abort")
	}
}
