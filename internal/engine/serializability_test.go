package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// This file checks the central correctness claim of hierarchical MCC
// (Definition 4.2.1 + consistent ordering, §4.2): committed histories are
// serializable. We record, per committed transaction, its read-from edges
// (which writer version each read observed) and per-key write order (by
// commit timestamp), build the Direct Serialization Graph, and assert it is
// acyclic. Aborted-read freedom is checked directly: a committed transaction
// must never have observed a version whose writer ultimately aborted.

type obsRead struct {
	key    core.Key
	writer uint64 // 0 = initial load
}

type obsTxn struct {
	id      uint64
	typ     string
	beginTS uint64
	snap    string
	txn     *core.Txn
	reads   []obsRead
	writes  map[core.Key]uint64 // key -> commitTS
}

type history struct {
	mu   sync.Mutex
	txns []*obsTxn
	eng  *Engine
}

func (h *history) add(t *obsTxn) {
	h.mu.Lock()
	h.txns = append(h.txns, t)
	h.mu.Unlock()
}

// runHistory executes a random update workload over `keys` keys under the
// given tree, recording observations, and returns the committed history.
func runHistory(t *testing.T, cfg *NodeSpec, types []string, keys, workers, txnsEach int) *history {
	t.Helper()
	if testing.Short() {
		// Keep the CI -race job reliable: under the race detector's
		// slowdown the 3s lock timeout behaves like a fraction of
		// itself, and high-contention configs (RP especially) can spend
		// minutes in timeout-abort-retry churn at full load.
		if txnsEach /= 4; txnsEach < 10 {
			txnsEach = 10
		}
	}
	specs := []*core.Spec{}
	for _, typ := range types {
		specs = append(specs, &core.Spec{
			Name:        typ,
			Tables:      []string{"h"},
			WriteTables: []string{"h"},
		})
	}
	e, err := New(Options{Shards: 4, LockTimeout: 3 * time.Second}, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < keys; i++ {
		e.Load(core.KeyOf("h", i), encodeWriter(0))
	}

	h := &history{eng: e}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < txnsEach; i++ {
				typ := types[rng.Intn(len(types))]
				nOps := 2 + rng.Intn(4)
				readSet := make([]int, nOps)
				writeSet := make([]int, 0, nOps)
				for j := range readSet {
					readSet[j] = rng.Intn(keys)
				}
				for j := 0; j < nOps; j++ {
					if rng.Intn(2) == 0 {
						writeSet = append(writeSet, rng.Intn(keys))
					}
				}
				obs := &obsTxn{writes: map[core.Key]uint64{}}
				err := e.RunTxn(typ, uint64(rng.Intn(8)), func(tx *Tx) error {
					obs.reads = obs.reads[:0]
					obs.id = tx.ID()
					obs.typ = txnOf(tx).Type
					obs.beginTS = txnOf(tx).BeginTS
					obs.txn = txnOf(tx)
					obs.snap = fmt.Sprintf("%v", txnOf(tx).Slots[0])
					for _, k := range readSet {
						key := core.KeyOf("h", k)
						v, err := tx.Read(key)
						if err != nil {
							return err
						}
						obs.reads = append(obs.reads, obsRead{key: key, writer: decodeWriter(v)})
					}
					for _, k := range writeSet {
						key := core.KeyOf("h", k)
						if err := tx.Write(key, encodeWriter(tx.ID())); err != nil {
							return err
						}
					}
					return nil
				})
				if err == nil {
					// The commit timestamp comes straight from
					// the committed transaction: version chains
					// may already be garbage-collected.
					cts := obs.txn.CommitTS()
					for _, k := range writeSet {
						obs.writes[core.KeyOf("h", k)] = cts
					}
					h.add(obs)
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	return h
}

func encodeWriter(id uint64) []byte {
	return []byte(fmt.Sprintf("%d", id))
}

func decodeWriter(b []byte) uint64 {
	var id uint64
	fmt.Sscanf(string(b), "%d", &id)
	return id
}

// checkSerializable builds the DSG and fails on cycles or aborted reads.
func checkSerializable(t *testing.T, h *history) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()

	byID := map[uint64]*obsTxn{}
	for _, tx := range h.txns {
		byID[tx.id] = tx
	}
	// Aborted-read freedom: every observed writer must be committed (or
	// the initial load).
	committedWriters := map[uint64]bool{0: true}
	for _, tx := range h.txns {
		committedWriters[tx.id] = true
	}
	// Per-key committed write order by commit timestamp.
	type kw struct {
		id uint64
		ts uint64
	}
	keyWrites := map[core.Key][]kw{}
	for _, tx := range h.txns {
		for k, ts := range tx.writes {
			keyWrites[k] = append(keyWrites[k], kw{tx.id, ts})
		}
	}
	for k := range keyWrites {
		ws := keyWrites[k]
		for i := range ws {
			for j := i + 1; j < len(ws); j++ {
				if ws[j].ts < ws[i].ts {
					ws[i], ws[j] = ws[j], ws[i]
				}
			}
		}
		keyWrites[k] = ws
	}
	succOf := func(k core.Key, id uint64) (uint64, bool) {
		ws := keyWrites[k]
		for i, w := range ws {
			if w.id == id {
				if i+1 < len(ws) {
					return ws[i+1].id, true
				}
				return 0, false
			}
		}
		// Writer not in committed set (initial load): successor is the
		// first committed writer.
		if id == 0 && len(ws) > 0 {
			return ws[0].id, true
		}
		return 0, false
	}

	// DSG edges.
	adj := map[uint64]map[uint64]bool{}
	edge := func(a, b uint64) {
		if a == b || a == 0 || b == 0 {
			return
		}
		if adj[a] == nil {
			adj[a] = map[uint64]bool{}
		}
		adj[a][b] = true
	}
	for _, tx := range h.txns {
		for _, r := range tx.reads {
			if !committedWriters[r.writer] {
				t.Fatalf("txn %d read from writer %d which is not committed (aborted read!)",
					tx.id, r.writer)
			}
			// wr: writer -> reader.
			edge(r.writer, tx.id)
			// rw: reader -> next writer of that key.
			if succ, ok := succOf(r.key, r.writer); ok {
				edge(tx.id, succ)
			}
		}
		for k := range tx.writes {
			// ww: this writer -> next writer.
			if succ, ok := succOf(k, tx.id); ok {
				edge(tx.id, succ)
			}
		}
	}

	// Cycle detection (iterative DFS, colors).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[uint64]int{}
	var stack []uint64
	for start := range adj {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], start)
		type frame struct {
			node uint64
			next []uint64
		}
		frames := []frame{}
		push := func(n uint64) {
			color[n] = gray
			var succ []uint64
			for s := range adj[n] {
				succ = append(succ, s)
			}
			frames = append(frames, frame{node: n, next: succ})
		}
		push(start)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if len(f.next) == 0 {
				color[f.node] = black
				frames = frames[:len(frames)-1]
				continue
			}
			n := f.next[len(f.next)-1]
			f.next = f.next[:len(f.next)-1]
			switch color[n] {
			case white:
				push(n)
			case gray:
				// Extract and print the cycle for debugging.
				var cyc []uint64
				for i := len(frames) - 1; i >= 0; i-- {
					cyc = append(cyc, frames[i].node)
					if frames[i].node == n {
						break
					}
				}
				keys := map[core.Key]bool{}
				for _, id := range cyc {
					tx := byID[id]
					t.Logf("txn %d type=%s begin=%d slot0=%s: reads=%v writes=%v",
						id, tx.typ, tx.beginTS, tx.snap, tx.reads, tx.writes)
					for _, r := range tx.reads {
						keys[r.key] = true
					}
					for k := range tx.writes {
						keys[k] = true
					}
				}
				for k := range keys {
					c := h.eng.Store().Lookup(k)
					if c == nil {
						continue
					}
					//lint:allow lockorder -- failure-path diagnostics dump chains under the history lock; the test is already aborting
					c.Lock()
					var desc []string
					for _, v := range c.Versions() {
						desc = append(desc, fmt.Sprintf("w%d@%d(%s)", v.Writer.ID, v.CommitTS(), v.Writer.State()))
					}
					c.Unlock()
					t.Logf("chain %s: %v", k, desc)
				}
				t.Fatalf("DSG cycle detected through txn %d: cycle %v", n, cyc)
			}
		}
	}
}

func serializabilityConfigs() map[string]*NodeSpec {
	return map[string]*NodeSpec{
		"leaf-2pl": G(Kind2PL, []string{"u1", "u2"}),
		"leaf-ssi": G(KindSSI, []string{"u1", "u2"}),
		"leaf-tso": G(KindTSO, []string{"u1", "u2"}),
		"leaf-rp":  G(KindRP, []string{"u1", "u2"}),
		"nexus-2pl-over-rp": G(Kind2PL, nil,
			G(KindRP, []string{"u1"}),
			G(Kind2PL, []string{"u2"})),
		"batched-ssi": G(KindSSI, nil,
			G(Kind2PL, []string{"u1"}),
			G(Kind2PL, []string{"u2"})),
		"tso-nonleaf": G(KindTSO, nil,
			G(Kind2PL, []string{"u1"}),
			G(Kind2PL, []string{"u2"})),
		"rp-over-2pl": G(KindRP, nil,
			G(Kind2PL, []string{"u1"}),
			G(Kind2PL, []string{"u2"})),
		"three-layer": G(KindSSI, nil,
			G(KindNone, nil),
			G(Kind2PL, nil,
				G(KindRP, []string{"u1"}),
				G(KindTSO, []string{"u2"}))),
		"by-instance-tso": {Kind: Kind2PL, Children: []*NodeSpec{{
			Kind: Kind2PL, Clones: 4,
			Children: []*NodeSpec{G(KindTSO, []string{"u1", "u2"})},
		}}},
	}
}

// TestSerializabilityAcrossTrees is the core property test: random
// read/write workloads over every CC tree shape we ship must produce
// acyclic DSGs and no aborted reads. SSI shapes run at moderated contention:
// snapshot isolation's abort rate under adversarial hot-key write loads is
// real protocol behaviour (the paper's ww-* results), and drowning it in
// retries only slows the test without sharpening the property.
func TestSerializabilityAcrossTrees(t *testing.T) {
	for name, cfg := range serializabilityConfigs() {
		cfg := cfg
		keys, workers, txns := 12, 8, 60
		if name == "leaf-ssi" || name == "batched-ssi" {
			keys, workers, txns = 24, 4, 40
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := runHistory(t, cfg, []string{"u1", "u2"}, keys, workers, txns)
			if len(h.txns) == 0 {
				t.Fatal("no transactions committed")
			}
			checkSerializable(t, h)
		})
	}
}

// TestSerializabilityHighContention narrows the key space to maximize
// conflicts on the lock- and timestamp-based trees.
func TestSerializabilityHighContention(t *testing.T) {
	for _, name := range []string{"leaf-tso", "nexus-2pl-over-rp", "three-layer"} {
		cfg := serializabilityConfigs()[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := runHistory(t, cfg, []string{"u1", "u2"}, 3, 6, 50)
			checkSerializable(t, h)
		})
	}
	// Batched SSI gets a slightly wider key space (snapshot aborts make
	// 3-key hot loops crawl) but still heavy contention.
	t.Run("batched-ssi", func(t *testing.T) {
		t.Parallel()
		h := runHistory(t, serializabilityConfigs()["batched-ssi"], []string{"u1", "u2"}, 8, 4, 30)
		checkSerializable(t, h)
	})
}
