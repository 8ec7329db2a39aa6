package engine

import (
	"testing"
	"time"

	"repro/internal/core"
)

// Hot-path microbenchmarks mirroring the alloc_test.go budgets. The CI
// bench-smoke job runs these with -benchtime=1x -benchmem on every push —
// not for stable timings (one iteration proves nothing about speed) but so
// the allocs/op columns are printed and eyeballable next to the enforced
// AllocsPerRun budgets, and so the benchmark bodies themselves can't bitrot.

func benchEngine(b *testing.B, specs []*core.Spec, cfg *NodeSpec) *Engine {
	b.Helper()
	e, err := New(Options{Shards: 4, LockTimeout: 2 * time.Second, GCInterval: -1}, specs, cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// BenchmarkHotPathRead — repeat read of a committed key inside one open
// transaction, single-leaf 2PL tree (0 allocs/op).
func BenchmarkHotPathRead(b *testing.B) {
	specs := []*core.Spec{{Name: "op", Tables: []string{"t"}, WriteTables: []string{"t"}}}
	e := benchEngine(b, specs, G(Kind2PL, []string{"op"}))
	k := core.KeyOf("t", 1)
	e.Load(k, []byte("v"))
	tx, err := e.Begin("op", 0)
	if err != nil {
		b.Fatalf("Begin: %v", err)
	}
	defer tx.Rollback(nil)
	if _, err := tx.Read(k); err != nil {
		b.Fatalf("Read: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Read(k); err != nil {
			b.Fatalf("Read: %v", err)
		}
	}
}

// BenchmarkHotPathReadOnlyTxn — full begin/read/commit read-only cycle on
// the YCSB-C shape (optimized SSI over NoCC); the transaction recycles
// through the pool each iteration.
func BenchmarkHotPathReadOnlyTxn(b *testing.B) {
	specs := []*core.Spec{
		{Name: "ro", ReadOnly: true, Tables: []string{"t"}},
		{Name: "upd", Tables: []string{"t"}, WriteTables: []string{"t"}},
	}
	e := benchEngine(b, specs,
		G(KindSSI, nil, G(KindNone, []string{"ro"}), G(Kind2PL, []string{"upd"})))
	k := core.KeyOf("t", 1)
	e.Load(k, []byte("v"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := e.Begin("ro", 0)
		if err != nil {
			b.Fatalf("Begin: %v", err)
		}
		if _, err := tx.Read(k); err != nil {
			b.Fatalf("Read: %v", err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatalf("Commit: %v", err)
		}
	}
}

// BenchmarkHotPathWriteTxn — begin/write/commit under a single-leaf 2PL
// tree (no durability; the CC-side write cost). Background GC stays on:
// every commit adds a version to the same chain, and without pruning the
// commit-time chain walk grows O(b.N) and dominates the measurement.
func BenchmarkHotPathWriteTxn(b *testing.B) {
	specs := []*core.Spec{{Name: "op", Tables: []string{"t"}, WriteTables: []string{"t"}}}
	e, err := New(Options{Shards: 4, LockTimeout: 2 * time.Second, GCInterval: 5 * time.Millisecond}, specs, G(Kind2PL, []string{"op"}))
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.Cleanup(func() { e.Close() })
	k := core.KeyOf("t", 1)
	e.Load(k, []byte("v0"))
	val := []byte("v1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := e.Begin("op", 0)
		if err != nil {
			b.Fatalf("Begin: %v", err)
		}
		if err := tx.Write(k, val); err != nil {
			b.Fatalf("Write: %v", err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatalf("Commit: %v", err)
		}
	}
}

// BenchmarkHotPathWideWriter — the NewOrder shape of TestAllocBudgetWideWriter:
// one read and 24 writes over three RP steps under SSI[NoCC 2PL[RP RP]].
// Background GC stays on, as in BenchmarkHotPathWriteTxn.
func BenchmarkHotPathWideWriter(b *testing.B) {
	specs, cfg := wideWriterTree()
	e, err := New(Options{Shards: 4, LockTimeout: 2 * time.Second, GCInterval: 5 * time.Millisecond}, specs, cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.Cleanup(func() { e.Close() })
	run := wideWriter(b, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
