package engine

import (
	"testing"
	"time"

	"repro/internal/core"
)

// Allocation budgets for the transaction hot path. These are regression
// tripwires, not aspirations: each budget is the measured cost of the
// current implementation plus a little slack, so an accidental per-op
// allocation (a lazily-built map turned eager, a closure capture, a
// fmt.Sprintf on the happy path) fails CI instead of silently rotting the
// perf work. Run with -run AllocBudget -v to see the measured values.

// newAllocEngine builds an engine with background GC disabled so the only
// allocations AllocsPerRun sees are the hot path's own.
func newAllocEngine(t *testing.T, specs []*core.Spec, cfg *NodeSpec) *Engine {
	t.Helper()
	e, err := New(Options{Shards: 4, LockTimeout: 2 * time.Second, GCInterval: -1}, specs, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func checkBudget(t *testing.T, what string, budget float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(200, f)
	t.Logf("%s: %.1f allocs/op (budget %.0f)", what, got, budget)
	if got > budget {
		t.Errorf("%s: %.1f allocs/op exceeds budget %.0f", what, got, budget)
	}
}

// TestAllocBudgetRepeatRead: re-reading a committed key inside an open
// transaction under a single-leaf 2PL tree is allocation-free — the lock is
// already held, the chain is memoized by the shard index, and the bottom-up
// pass proposes the version without building per-phase state.
func TestAllocBudgetRepeatRead(t *testing.T) {
	specs := []*core.Spec{{Name: "op", Tables: []string{"t"}, WriteTables: []string{"t"}}}
	e := newAllocEngine(t, specs, G(Kind2PL, []string{"op"}))
	k := core.KeyOf("t", 1)
	e.Load(k, []byte("v"))

	tx, err := e.Begin("op", 0)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	defer tx.Rollback(nil)
	if _, err := tx.Read(k); err != nil { // first read pays the lock acquisition
		t.Fatalf("Read: %v", err)
	}
	checkBudget(t, "repeat read, single-leaf 2PL", 0, func() {
		if _, err := tx.Read(k); err != nil {
			t.Fatalf("Read: %v", err)
		}
	})
}

// TestAllocBudgetReadOnlyCycle: a full begin/read/commit read-only cycle on
// the YCSB-C shape — optimized SSI over a NoCC read-only group — where the
// transaction recycles through the pool. Budget covers the Tx handle and the
// SSI slot; the Txn itself, its Path/Slots backing arrays, and the done
// channel must all come from the pool or stay unallocated.
func TestAllocBudgetReadOnlyCycle(t *testing.T) {
	specs := []*core.Spec{
		{Name: "ro", ReadOnly: true, Tables: []string{"t"}},
		{Name: "upd", Tables: []string{"t"}, WriteTables: []string{"t"}},
	}
	e := newAllocEngine(t, specs,
		G(KindSSI, nil, G(KindNone, []string{"ro"}), G(Kind2PL, []string{"upd"})))
	k := core.KeyOf("t", 1)
	e.Load(k, []byte("v"))

	checkBudget(t, "begin/read/commit read-only, SSI[NoCC 2PL]", 4, func() {
		tx, err := e.Begin("ro", 0)
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if _, err := tx.Read(k); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	})
}

// TestAllocBudgetWriteCycle: begin/write/commit under a single-leaf 2PL
// tree. Writers escape into version chains so they are never pooled; the
// budget covers the Txn, Tx handle, the 2PL slot and its held-key list, the
// version, the chain's version list and the write-set entry; the lock table
// itself adds nothing (lockmgr's TestAllocBudgetAcquireRelease).
func TestAllocBudgetWriteCycle(t *testing.T) {
	specs := []*core.Spec{{Name: "op", Tables: []string{"t"}, WriteTables: []string{"t"}}}
	e := newAllocEngine(t, specs, G(Kind2PL, []string{"op"}))
	k := core.KeyOf("t", 1)
	e.Load(k, []byte("v0"))
	val := []byte("v1")

	checkBudget(t, "begin/write/commit, single-leaf 2PL", 9, func() {
		tx, err := e.Begin("op", 0)
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if err := tx.Write(k, val); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	})
}

// TestAllocBudgetThreeLayerCycle: begin/read/write/commit of two keys in two
// tables under the paper's tree, SSI[NoCC 2PL[RP RP]]. Every operation
// crosses two lock tables (2PL's and RP's) and the second table is a new RP
// step, so this guards the composed path: a per-grant lock entry, an eager
// wake channel in either table or in the RP slot, or a per-transaction held
// map coming back shows up here, not only at the single leaf.
func TestAllocBudgetThreeLayerCycle(t *testing.T) {
	specs := []*core.Spec{
		{Name: "ro", ReadOnly: true, Tables: []string{"a", "b"}},
		{Name: "upd", Tables: []string{"a", "b"}, WriteTables: []string{"b"}},
		{Name: "other", Tables: []string{"a", "b"}, WriteTables: []string{"a", "b"}},
	}
	e := newAllocEngine(t, specs,
		G(KindSSI, nil,
			G(KindNone, []string{"ro"}),
			G(Kind2PL, nil, G(KindRP, []string{"upd"}), G(KindRP, []string{"other"}))))
	ka, kb := core.KeyOf("a", 1), core.KeyOf("b", 1)
	e.Load(ka, []byte("v0"))
	e.Load(kb, []byte("v0"))
	val := []byte("v1")

	checkBudget(t, "begin/read/write/commit, SSI[NoCC 2PL[RP RP]]", 16, func() {
		tx, err := e.Begin("upd", 0)
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if _, err := tx.Read(ka); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if err := tx.Write(kb, val); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	})
}
