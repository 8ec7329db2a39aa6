// Package ycsb implements a YCSB-style key-value workload (Cooper et al.,
// SoCC 2010) over Tebaldi: the A (update-heavy, 50/50), B (read-heavy,
// 95/5) and C (read-only) core mixes, with zipfian or uniform request
// distributions over a single `usertable`.
//
// The paper's evaluation uses TPC-C and SEATS; YCSB adds the write-heavy
// scenario those lack, which is what the durability module's group-commit
// pipeline is measured against (EXPERIMENTS.md): under YCSB-A with
// synchronous durability every committer reaches the log, so log batching —
// not concurrency control — decides throughput.
//
// Each generated transaction performs OpsPerTxn point operations. A
// transaction whose drawn operations are all reads runs as the read-only
// type TxnRead (eligible for no-CC read-only groups under an SSI root);
// any write makes it TxnUpdate.
package ycsb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/tebaldi"
)

// Table is the single YCSB table.
const Table = "usertable"

// Transaction type names.
const (
	TxnRead   = "ycsb_read"
	TxnUpdate = "ycsb_update"
)

// Distributions.
const (
	Zipfian = "zipfian"
	Uniform = "uniform"
)

// Workload describes one YCSB variant. The zero value is completed by
// withDefaults: 64k records, 4 ops/txn, zipfian with theta 0.99, 100-byte
// values.
type Workload struct {
	// Records is the number of rows loaded into usertable.
	Records int
	// OpsPerTxn is the number of point operations per transaction.
	OpsPerTxn int
	// ReadProportion is the per-operation probability of a read (the rest
	// are updates): 0.5 for A, 0.95 for B, 1.0 for C.
	ReadProportion float64
	// Distribution selects the key chooser: Zipfian (default) or Uniform.
	Distribution string
	// Theta is the zipfian skew (YCSB default 0.99).
	Theta float64
	// ValueSize is the written value length in bytes.
	ValueSize int
}

// A returns the YCSB-A core workload: update-heavy, 50% reads / 50%
// updates, zipfian.
func A() Workload { return Workload{ReadProportion: 0.5} }

// B returns the YCSB-B core workload: read-heavy, 95% reads, zipfian.
func B() Workload { return Workload{ReadProportion: 0.95} }

// C returns the YCSB-C core workload: read-only, zipfian.
func C() Workload { return Workload{ReadProportion: 1.0} }

func (w Workload) withDefaults() Workload {
	if w.Records <= 0 {
		w.Records = 1 << 16
	}
	if w.OpsPerTxn <= 0 {
		w.OpsPerTxn = 4
	}
	if w.Distribution == "" {
		w.Distribution = Zipfian
	}
	if w.Theta <= 0 {
		w.Theta = 0.99
	}
	if w.ValueSize <= 0 {
		w.ValueSize = 100
	}
	return w
}

// Specs returns the workload's transaction type specs.
func (w Workload) Specs() []*tebaldi.Spec {
	return []*tebaldi.Spec{
		{Name: TxnRead, ReadOnly: true, Tables: []string{Table}},
		{Name: TxnUpdate, Tables: []string{Table}, WriteTables: []string{Table}},
	}
}

// Config returns the default CC tree for YCSB: SSI at the root separating
// the read-only group (no CC) from a 2PL update group — the initial
// configuration of §5.2, which is also what the paper's configurator would
// start from for a two-type workload.
func (w Workload) Config() *tebaldi.Config {
	return tebaldi.Inner(tebaldi.SSI,
		tebaldi.Leaf(tebaldi.None, TxnRead),
		tebaldi.Leaf(tebaldi.TwoPL, TxnUpdate))
}

// Op is one generated transaction: run it with DB.Exec.
type Op = tebaldi.Op

// Client generates YCSB transactions. Safe for concurrent use: the chooser
// state is immutable after construction and all randomness comes from the
// caller's rng.
type Client struct {
	w       Workload
	chooser chooser
}

// New builds a client (precomputing the zipfian constants).
func New(w Workload) *Client {
	w = w.withDefaults()
	c := &Client{w: w}
	switch w.Distribution {
	case Uniform:
		c.chooser = uniform{n: w.Records}
	default:
		c.chooser = newZipfian(w.Records, w.Theta)
	}
	return c
}

// Workload returns the (default-completed) workload description.
func (c *Client) Workload() Workload { return c.w }

// Load populates usertable with Records rows.
func (c *Client) Load(db *tebaldi.DB) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, c.w.ValueSize)
	for i := 0; i < c.w.Records; i++ {
		rng.Read(buf)
		v := make([]byte, len(buf))
		copy(v, buf)
		db.Load(tebaldi.KeyOf(Table, i), v)
	}
}

// Mix draws one transaction: OpsPerTxn point operations, each a read with
// probability ReadProportion, over chooser-distributed keys. Keys are
// deduplicated (a duplicate zipfian draw with any write becomes one write)
// and accessed in sorted order — the standard discipline for running YCSB
// over a locking CC: lock acquisition order is deterministic, so hot-key
// contention produces waits, not spurious deadlock-by-timeout storms.
func (c *Client) Mix(rng *rand.Rand) Op {
	n := c.w.OpsPerTxn
	// Dedup + sort via insertion into a small sorted slice: transactions
	// are a handful of ops, so this beats the map + sort.Ints machinery
	// that used to dominate the client-side allocation profile.
	keys := make([]int, 0, n)
	writes := make([]bool, 0, n)
	allRead := true
	for i := 0; i < n; i++ {
		k := c.chooser.next(rng)
		w := rng.Float64() >= c.w.ReadProportion
		if w {
			allRead = false
		}
		pos := len(keys)
		dup := false
		for j, kj := range keys {
			if kj == k {
				pos, dup = j, true
				break
			}
			if kj > k {
				pos = j
				break
			}
		}
		if dup {
			writes[pos] = writes[pos] || w
			continue
		}
		keys = append(keys, 0)
		writes = append(writes, false)
		copy(keys[pos+1:], keys[pos:])
		copy(writes[pos+1:], writes[pos:])
		keys[pos], writes[pos] = k, w
	}
	typ := TxnUpdate
	if allRead {
		typ = TxnRead
	}
	var val []byte
	if !allRead {
		val = make([]byte, c.w.ValueSize)
		rng.Read(val)
	}
	return Op{Type: typ, Fn: func(tx *tebaldi.Tx) error {
		for i, k := range keys {
			key := tebaldi.KeyOf(Table, k)
			if writes[i] {
				if err := tx.Write(key, val); err != nil {
					return err
				}
			} else if _, err := tx.Read(key); err != nil {
				return err
			}
		}
		return nil
	}}
}

// ---- key choosers ----

type chooser interface {
	next(rng *rand.Rand) int
}

type uniform struct{ n int }

func (u uniform) next(rng *rand.Rand) int { return rng.Intn(u.n) }

// zipfian is the standard YCSB zipfian generator (Gray et al.'s rejection
// inversion constants), scrambled by an FNV hash so the hot keys spread
// over the whole keyspace instead of clustering at low row ids.
type zipfian struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

func newZipfian(n int, theta float64) *zipfian {
	z := &zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipfian) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	return scramble(rank, z.n)
}

// scramble maps a zipfian rank to a stable pseudo-random row id.
func scramble(rank, n int) int {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(rank))
	h.Write(b[:])
	return int(h.Sum64() % uint64(n))
}
