// Package micro implements the microbenchmarks of §4.6.4 and §4.6.5:
//
//   - the cross-group CC comparison (Figure 4.10): two groups whose
//     transactions conflict on a shared table at a tunable rate, write-write
//     or read-write, under different cross-group mechanisms;
//   - the two-layer vs three-layer scenario (Figure 4.11): a read-only T1,
//     a pipelinable T2 and a rarely-conflicting T3 that no single
//     cross-group mechanism can serve;
//   - the layering-overhead workload (Table 4.1): a conflict-free
//     seven-write transaction run under increasingly deep hierarchies.
package micro

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/tebaldi"
)

func val(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// ---- Figure 4.10: cross-group CC comparison ----

// CrossGroup is the two-group conflict workload. Each update transaction
// performs seven writes: one to the shared table (size SharedRows, so the
// conflict rate is 1/SharedRows), one to a ten-row group-local table, and
// five to a 10,000-row rarely-conflicting table.
type CrossGroup struct {
	SharedRows int
	ReadOnlyT1 bool // rw-* variants replace group 1 with a read-only reader
}

// Transaction type names.
const (
	TxnCG1 = "cg_t1"
	TxnCG2 = "cg_t2"
)

// Specs returns the workload's transaction specs.
func (w CrossGroup) Specs() []*tebaldi.Spec {
	t1 := &tebaldi.Spec{
		Name:        TxnCG1,
		Tables:      []string{"shared", "local1", "low"},
		WriteTables: []string{"shared", "local1", "low"},
	}
	if w.ReadOnlyT1 {
		t1.ReadOnly = true
		t1.WriteTables = nil
	}
	return []*tebaldi.Spec{t1, {
		Name:        TxnCG2,
		Tables:      []string{"shared", "local2", "low"},
		WriteTables: []string{"shared", "local2", "low"},
	}}
}

// Load populates the tables.
func (w CrossGroup) Load(db *tebaldi.DB) {
	for i := 0; i < w.SharedRows; i++ {
		db.Load(tebaldi.KeyOf("shared", i), val(0))
	}
	for i := 0; i < 10; i++ {
		db.Load(tebaldi.KeyOf("local1", i), val(0))
		db.Load(tebaldi.KeyOf("local2", i), val(0))
	}
	for i := 0; i < 10000; i++ {
		db.Load(tebaldi.KeyOf("low", i), val(0))
	}
}

// Op is one generated transaction: run it with DB.Exec.
type Op = tebaldi.Op

// Mix draws T1 or T2 with equal probability.
func (w CrossGroup) Mix(rng *rand.Rand) Op {
	if rng.Intn(2) == 0 {
		return w.t1(rng)
	}
	return w.t2(rng)
}

func (w CrossGroup) t1(rng *rand.Rand) Op {
	shared := rng.Intn(w.SharedRows)
	local := rng.Intn(10)
	low := make([]int, 5)
	for i := range low {
		low[i] = rng.Intn(10000)
	}
	if w.ReadOnlyT1 {
		return Op{Type: TxnCG1, Fn: func(tx *tebaldi.Tx) error {
			if _, err := tx.Read(tebaldi.KeyOf("shared", shared)); err != nil {
				return err
			}
			if _, err := tx.Read(tebaldi.KeyOf("local1", local)); err != nil {
				return err
			}
			for _, l := range low {
				if _, err := tx.Read(tebaldi.KeyOf("low", l)); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	return Op{Type: TxnCG1, Fn: w.updateFn("local1", shared, local, low)}
}

func (w CrossGroup) t2(rng *rand.Rand) Op {
	shared := rng.Intn(w.SharedRows)
	local := rng.Intn(10)
	low := make([]int, 5)
	for i := range low {
		low[i] = rng.Intn(10000)
	}
	return Op{Type: TxnCG2, Fn: w.updateFn("local2", shared, local, low)}
}

func (w CrossGroup) updateFn(localTable string, shared, local int, low []int) func(*tebaldi.Tx) error {
	return func(tx *tebaldi.Tx) error {
		if err := tx.Write(tebaldi.KeyOf("shared", shared), val(1)); err != nil {
			return err
		}
		if err := tx.Write(tebaldi.KeyOf(localTable, local), val(1)); err != nil {
			return err
		}
		for _, l := range low {
			if err := tx.Write(tebaldi.KeyOf("low", l), val(1)); err != nil {
				return err
			}
		}
		return nil
	}
}

// Config builds the two-layer tree with the given cross-group mechanism.
func (w CrossGroup) Config(cross tebaldi.Kind) *tebaldi.Config {
	g1 := tebaldi.Leaf(tebaldi.RP, TxnCG1)
	if w.ReadOnlyT1 {
		g1 = tebaldi.Leaf(tebaldi.None, TxnCG1)
	}
	return tebaldi.Inner(cross, g1, tebaldi.Leaf(tebaldi.RP, TxnCG2))
}

// ---- Table 4.1: layering overhead ----

// Overhead is the conflict-free seven-write workload.
type Overhead struct {
	seq atomic.Uint64
}

// TxnW7 is the single transaction type.
const TxnW7 = "w7"

// Specs returns the workload's transaction spec.
func (w *Overhead) Specs() []*tebaldi.Spec {
	return []*tebaldi.Spec{{
		Name:        TxnW7,
		Tables:      []string{"ov"},
		WriteTables: []string{"ov"},
	}}
}

// Next builds one transaction writing seven fresh keys (never conflicts).
func (w *Overhead) Next(rng *rand.Rand) Op {
	base := w.seq.Add(7)
	return Op{Type: TxnW7, Fn: func(tx *tebaldi.Tx) error {
		for i := uint64(0); i < 7; i++ {
			k := tebaldi.K("ov", fmt.Sprint(base+i))
			if err := tx.Write(k, val(base+i)); err != nil {
				return err
			}
		}
		return nil
	}}
}

// Configs returns the Table 4.1 hierarchy variants, keyed by name.
func (w *Overhead) Configs() map[string]*tebaldi.Config {
	return map[string]*tebaldi.Config{
		"stand-alone RP": tebaldi.Leaf(tebaldi.RP, TxnW7),
		"2PL - RP":       tebaldi.Inner(tebaldi.TwoPL, tebaldi.Leaf(tebaldi.RP, TxnW7)),
		"SSI - RP":       tebaldi.Inner(tebaldi.SSI, tebaldi.Leaf(tebaldi.RP, TxnW7)),
		"RP - RP":        tebaldi.Inner(tebaldi.RP, tebaldi.Leaf(tebaldi.RP, TxnW7)),
	}
}

// ---- Figure 4.11: two-layer vs three-layer ----

// ThreeLayer is the §4.6.4 hierarchical-application scenario. Table A has
// ten rows (hot); tables B..E have 10,000 rows each (cold).
type ThreeLayer struct{}

// Transaction type names.
const (
	TxnTL1 = "tl_t1" // read-only: 1 row of A, 10 rows of B..E
	TxnTL2 = "tl_t2" // writes A, then one key in each of B..E
	TxnTL3 = "tl_t3" // reads B..E, writes back to B
)

// Specs returns the three transaction specs.
func (ThreeLayer) Specs() []*tebaldi.Spec {
	return []*tebaldi.Spec{
		{Name: TxnTL1, ReadOnly: true, Tables: []string{"A", "B", "C", "D", "E"}},
		{Name: TxnTL2, Tables: []string{"A", "B", "C", "D", "E"},
			WriteTables: []string{"A", "B", "C", "D", "E"}},
		// T3 revisits B (read B..E, then write back to B): the revisit
		// is declared so RP's analysis merges B..E into one step when
		// T3 shares an RP group (the paper's "less efficient pipeline").
		{Name: TxnTL3, Tables: []string{"B", "C", "D", "E", "B"},
			WriteTables: []string{"B"}},
	}
}

// Load populates the tables.
func (ThreeLayer) Load(db *tebaldi.DB) {
	for i := 0; i < 10; i++ {
		db.Load(tebaldi.KeyOf("A", i), val(0))
	}
	for _, t := range []string{"B", "C", "D", "E"} {
		for i := 0; i < 10000; i++ {
			db.Load(tebaldi.KeyOf(t, i), val(0))
		}
	}
}

// Mix draws T1/T2/T3 with equal probability.
func (w ThreeLayer) Mix(rng *rand.Rand) Op {
	switch rng.Intn(3) {
	case 0:
		return w.t1(rng)
	case 1:
		return w.t2(rng)
	default:
		return w.t3(rng)
	}
}

func (ThreeLayer) t1(rng *rand.Rand) Op {
	a := rng.Intn(10)
	cold := make([]int, 10)
	for i := range cold {
		cold[i] = rng.Intn(10000)
	}
	tables := []string{"B", "C", "D", "E"}
	return Op{Type: TxnTL1, Fn: func(tx *tebaldi.Tx) error {
		if _, err := tx.Read(tebaldi.KeyOf("A", a)); err != nil {
			return err
		}
		// Reads grouped by table, honouring the declared access order
		// (A, B, C, D, E) so runtime pipelining can chop the
		// transaction when T1 shares an RP group (two-layer-3).
		for ti, tbl := range tables {
			for i := ti; i < len(cold); i += len(tables) {
				if _, err := tx.Read(tebaldi.KeyOf(tbl, cold[i])); err != nil {
					return err
				}
			}
		}
		return nil
	}}
}

func (ThreeLayer) t2(rng *rand.Rand) Op {
	a := rng.Intn(10)
	cold := make([]int, 4)
	for i := range cold {
		cold[i] = rng.Intn(10000)
	}
	tables := []string{"B", "C", "D", "E"}
	return Op{Type: TxnTL2, Fn: func(tx *tebaldi.Tx) error {
		if err := tx.Write(tebaldi.KeyOf("A", a), val(1)); err != nil {
			return err
		}
		for i, t := range tables {
			if err := tx.Write(tebaldi.KeyOf(t, cold[i]), val(1)); err != nil {
				return err
			}
		}
		return nil
	}}
}

func (ThreeLayer) t3(rng *rand.Rand) Op {
	cold := make([]int, 4)
	for i := range cold {
		cold[i] = rng.Intn(10000)
	}
	tables := []string{"B", "C", "D", "E"}
	return Op{Type: TxnTL3, Fn: func(tx *tebaldi.Tx) error {
		for i, t := range tables {
			if _, err := tx.Read(tebaldi.KeyOf(t, cold[i])); err != nil {
				return err
			}
		}
		return tx.Write(tebaldi.KeyOf("B", cold[0]), val(1))
	}}
}

// Configs returns the Figure 4.11 tree variants, keyed by name.
func (ThreeLayer) Configs() map[string]*tebaldi.Config {
	return map[string]*tebaldi.Config{
		// Tebaldi's three-layer solution.
		"three-layer": tebaldi.Inner(tebaldi.SSI,
			tebaldi.Leaf(tebaldi.None, TxnTL1),
			tebaldi.Inner(tebaldi.TwoPL,
				tebaldi.Leaf(tebaldi.RP, TxnTL2),
				tebaldi.Leaf(tebaldi.TwoPL, TxnTL3))),
		// SSI cross-group, T2 and T3 separate (batching engaged).
		"two-layer-1": tebaldi.Inner(tebaldi.SSI,
			tebaldi.Leaf(tebaldi.None, TxnTL1),
			tebaldi.Leaf(tebaldi.RP, TxnTL2),
			tebaldi.Leaf(tebaldi.TwoPL, TxnTL3)),
		// SSI cross-group, T2 and T3 together (coarser pipeline).
		"two-layer-2": tebaldi.Inner(tebaldi.SSI,
			tebaldi.Leaf(tebaldi.None, TxnTL1),
			tebaldi.Leaf(tebaldi.RP, TxnTL2, TxnTL3)),
		// 2PL cross-group, T1 pipelined with T2.
		"two-layer-3": tebaldi.Inner(tebaldi.TwoPL,
			tebaldi.Leaf(tebaldi.RP, TxnTL1, TxnTL2),
			tebaldi.Leaf(tebaldi.TwoPL, TxnTL3)),
		// 2PL cross-group, all separate.
		"two-layer-4": tebaldi.Inner(tebaldi.TwoPL,
			tebaldi.Leaf(tebaldi.None, TxnTL1),
			tebaldi.Leaf(tebaldi.RP, TxnTL2),
			tebaldi.Leaf(tebaldi.TwoPL, TxnTL3)),
	}
}
