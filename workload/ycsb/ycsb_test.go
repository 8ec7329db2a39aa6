package ycsb

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/tebaldi"
)

func smallWorkload(w Workload) Workload {
	w.Records = 2048
	w.ValueSize = 32
	return w
}

func TestMixesRun(t *testing.T) {
	for _, m := range []struct {
		name string
		w    Workload
	}{
		{"A", A()}, {"B", B()}, {"C", C()},
		{"A-uniform", func() Workload { w := A(); w.Distribution = Uniform; return w }()},
	} {
		t.Run(m.name, func(t *testing.T) {
			c := New(smallWorkload(m.w))
			db, err := tebaldi.Open(tebaldi.Options{Shards: 4, LockTimeout: 2 * time.Second},
				m.w.Specs(), m.w.Config())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			c.Load(db)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 50; i++ {
				op := c.Mix(rng)
				if err := db.Run(op.Type, op.Part, op.Fn); err != nil {
					t.Fatal(err)
				}
			}
			if db.Stats().Snapshot().Commits == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}

func TestReadOnlyClassification(t *testing.T) {
	c := New(smallWorkload(C()))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if op := c.Mix(rng); op.Type != TxnRead {
			t.Fatalf("YCSB-C generated a %s transaction", op.Type)
		}
	}
	c = New(smallWorkload(A()))
	sawUpdate := false
	for i := 0; i < 100; i++ {
		if c.Mix(rng).Type == TxnUpdate {
			sawUpdate = true
		}
	}
	if !sawUpdate {
		t.Fatal("YCSB-A generated no update transactions")
	}
}

// TestZipfianSkew checks the chooser is actually skewed: with theta 0.99
// the most popular key should draw far more than uniform share, and all
// draws must stay in range.
func TestZipfianSkew(t *testing.T) {
	const n = 1000
	const draws = 200000
	z := newZipfian(n, 0.99)
	rng := rand.New(rand.NewSource(7))
	counts := make(map[int]int)
	for i := 0; i < draws; i++ {
		k := z.next(rng)
		if k < 0 || k >= n {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Uniform share would be draws/n = 200; the zipfian head should be
	// well over 10x that.
	if max < 10*draws/n {
		t.Fatalf("distribution not skewed: hottest key drawn %d times", max)
	}
	// Scrambling must not lose keys entirely on moderate samples.
	if len(counts) < n/10 {
		t.Fatalf("only %d distinct keys drawn", len(counts))
	}
}

func TestUniformCoverage(t *testing.T) {
	u := uniform{n: 100}
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[u.next(rng)]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-1000) > 400 {
			t.Fatalf("key %d drawn %d times (expected ~1000)", k, c)
		}
	}
}

// TestRunsUnderDurability drives YCSB-A under both durability modes and
// verifies committed writes survive recovery.
func TestRunsUnderDurability(t *testing.T) {
	for _, sync := range []bool{false, true} {
		name := "Async"
		if sync {
			name = "SyncCommit"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := smallWorkload(A())
			c := New(w)
			opts := tebaldi.Options{
				Shards:         4,
				LockTimeout:    2 * time.Second,
				DurabilityDir:  dir,
				DurabilitySync: sync,
				GCPEpoch:       10 * time.Millisecond,
			}
			db, err := tebaldi.Open(opts, w.Specs(), w.Config())
			if err != nil {
				t.Fatal(err)
			}
			c.Load(db)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 40; i++ {
				op := c.Mix(rng)
				if err := db.Run(op.Type, op.Part, op.Fn); err != nil {
					t.Fatal(err)
				}
			}
			committed := db.Stats().Snapshot().Commits
			if !sync {
				wal := db.Engine().Wal()
				if err := wal.WaitDurable(wal.Epoch()); err != nil {
					t.Fatal(err)
				}
			}
			db.Close()

			db2, st, err := tebaldi.Recover(opts, w.Specs(), w.Config())
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if st.Committed == 0 && committed > 0 {
				t.Fatalf("recovered no transactions out of %d committed", committed)
			}
		})
	}
}
