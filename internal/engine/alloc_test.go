package engine

import (
	"runtime"
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
//
// Under the race detector sync.Pool drops a random quarter of what is Put,
// so a pooled object is allocated again that often: an allocation budget
// below covers both builds, and a bytes budget allows half as much again
// in a race-detector build.

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

// checkBytesBudget is checkBudget for bytes: an allocation count cannot see
// a buffer that doubles its way up, since a few large allocations cost as
// much as many small ones. Like AllocsPerRun it runs f once to warm up and
// then on one processor, so the buffer pools it draws from are the ones its
// warm-up filled.
func checkBytesBudget(t *testing.T, what string, budget uint64, f func()) {
	t.Helper()
	if raceEnabled {
		budget += budget / 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%s: %d B/op (budget %d)", what, got, budget)
	if got > budget {
		t.Errorf("%s: %d B/op exceeds budget %d", what, got, budget)
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
// six allocations are the Txn, the Tx handle, the 2PL slot, the version and
// the chain's version list as it grows. The held-key list and the write
// list come from pools and the lock table adds nothing (lockmgr's
// TestAllocBudgetAcquireRelease). The budget is 7, what a race-detector
// build measures.
func TestAllocBudgetWriteCycle(t *testing.T) {
	specs := []*core.Spec{{Name: "op", Tables: []string{"t"}, WriteTables: []string{"t"}}}
	e := newAllocEngine(t, specs, G(Kind2PL, []string{"op"}))
	k := core.KeyOf("t", 1)
	e.Load(k, []byte("v0"))
	val := []byte("v1")

	checkBudget(t, "begin/write/commit, single-leaf 2PL", 7, func() {
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
// map coming back shows up here, not only at the single leaf. It measures
// 10 allocations, and 12 in a race-detector build, which is the budget.
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

	checkBudget(t, "begin/read/write/commit, SSI[NoCC 2PL[RP RP]]", 12, func() {
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

// wideWriter is the NewOrder shape under SSI[NoCC 2PL[RP RP]]: one read,
// then wideKeys writes spread over three tables that RP ranks as three
// steps, so every write crosses the 2PL and the RP lock tables and the
// per-transaction lists grow to dozens of elements.
const wideKeys = 24

func wideWriter(tb testing.TB, e *Engine) func() {
	read := core.KeyOf("a", 1)
	e.Load(read, []byte("v0"))
	var keys []core.Key
	for _, tbl := range []string{"b", "c", "d"} {
		for i := 0; i < wideKeys/3; i++ {
			k := core.KeyOf(tbl, i)
			e.Load(k, []byte("v0"))
			keys = append(keys, k)
		}
	}
	val := []byte("v1")
	return func() {
		tx, err := e.Begin("wide", 0)
		if err != nil {
			tb.Fatalf("Begin: %v", err)
		}
		if _, err := tx.Read(read); err != nil {
			tb.Fatalf("Read: %v", err)
		}
		for _, k := range keys {
			if err := tx.Write(k, val); err != nil {
				tb.Fatalf("Write: %v", err)
			}
		}
		if err := tx.Commit(); err != nil {
			tb.Fatalf("Commit: %v", err)
		}
	}
}

func wideWriterTree() ([]*core.Spec, *NodeSpec) {
	tables := []string{"a", "b", "c", "d"}
	specs := []*core.Spec{
		{Name: "ro", ReadOnly: true, Tables: tables},
		{Name: "wide", Tables: tables, WriteTables: tables[1:]},
		{Name: "other", Tables: tables, WriteTables: tables},
	}
	return specs, G(KindSSI, nil,
		G(KindNone, []string{"ro"}),
		G(Kind2PL, nil, G(KindRP, []string{"wide"}), G(KindRP, []string{"other"})))
}

// TestAllocBudgetWideWriter guards the bytes of a wide writer. Most of them
// are its versions and their chains, which the transaction publishes; the
// budget catches the write list, the dependency set and the held lists of
// 2PL and RP growing from nil again instead of reusing the arrays of an
// earlier transaction (24 keys take 1 + 2 + 4 + 8 + 16 + 32 elements to
// append one by one). It measures 2,899 B/op on go1.24/amd64; with all of
// those lists regrown it measures 6,763.
func TestAllocBudgetWideWriter(t *testing.T) {
	specs, cfg := wideWriterTree()
	e := newAllocEngine(t, specs, cfg)
	checkBytesBudget(t, "begin/read/24 writes/commit, SSI[NoCC 2PL[RP RP]]", 3000, wideWriter(t, e))
}
