package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// Randomized serializability fuzz over mixed CC trees: an SSI root
// federating 2PL and RP transfer leaves, a read-only audit group, and a
// partition-by-instance TSO subtree — the full federation shape of §5.4.
// Concurrent random transfers (and audits) run against one account table;
// the committed history is recorded and verified with the conflict-graph
// cycle check of serializability_test.go, NOT against a fixed expected
// order: the federation admits many serial orders for the same input, and
// any acyclic DSG certifies one of them. Balance conservation is asserted
// on top (a cycle-free history could still lose money to a lost update if
// the recording itself were wrong).

const xferInitial = 1000

// encAcct encodes (writer txn id, balance); decAcct parses it back. Writer
// id 0 is the initial load.
func encAcct(writer uint64, bal int64) []byte {
	return []byte(fmt.Sprintf("%d %d", writer, bal))
}

func decAcct(t *testing.T, b []byte) (uint64, int64) {
	var w uint64
	var bal int64
	if _, err := fmt.Sscanf(string(b), "%d %d", &w, &bal); err != nil {
		// Errorf, not Fatalf: decAcct runs on worker goroutines.
		t.Errorf("malformed account value %q: %v", b, err)
	}
	return w, bal
}

// transferConfig builds the mixed tree: SSI root over (audit | 2PL nexus
// over RP+2PL transfer leaves | per-partition TSO clones).
func transferConfig(parts int) *NodeSpec {
	return G(KindSSI, nil,
		G(KindNone, []string{"audit"}),
		G(Kind2PL, nil,
			G(KindRP, []string{"xfer_rp"}),
			G(Kind2PL, []string{"xfer_2pl"})),
		&NodeSpec{Kind: Kind2PL, Clones: parts,
			Children: []*NodeSpec{G(KindTSO, []string{"xfer_tso"})}},
	)
}

func transferSpecs() []*core.Spec {
	return []*core.Spec{
		{Name: "xfer_2pl", Tables: []string{"acct"}, WriteTables: []string{"acct"}},
		{Name: "xfer_rp", Tables: []string{"acct"}, WriteTables: []string{"acct"}},
		{Name: "xfer_tso", Tables: []string{"acct"}, WriteTables: []string{"acct"}, InstanceDomain: 4},
		{Name: "audit", ReadOnly: true, Tables: []string{"acct"}},
	}
}

// runTransferFuzz drives the workload for one seed and checks its history.
// With a non-empty walDir the engine logs to it (synchronously, so a
// transfer's two accounts land on the log's one appender from several data
// servers), and the recovery leg closes the engine, recovers the directory
// and demands every account exactly as committed in memory.
func runTransferFuzz(t *testing.T, seed int64, accounts, parts, workers, txnsEach int, walDir string) {
	t.Helper()
	opts := Options{Shards: 4, LockTimeout: 3 * time.Second, DurabilityDir: walDir, DurabilitySync: true}
	e, err := New(opts, transferSpecs(), transferConfig(parts))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < accounts; i++ {
		// Load bypasses the log; recovery sees only transferred accounts.
		e.Load(core.KeyOf("acct", i), encAcct(0, xferInitial))
	}
	perPart := accounts / parts

	h := &history{eng: e}
	types := []string{"xfer_2pl", "xfer_rp", "xfer_tso", "audit"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(workerSeed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed))
			for i := 0; i < txnsEach; i++ {
				typ := types[rng.Intn(len(types))]
				var part uint64
				var a, b int
				switch typ {
				case "xfer_tso":
					// TSO conflicts partition by instance: both
					// accounts of a TSO transfer stay inside one
					// partition, as InstanceDomain declares.
					p := rng.Intn(parts)
					part = uint64(p)
					oa := rng.Intn(perPart)
					ob := rng.Intn(perPart - 1)
					if ob >= oa {
						ob++
					}
					a, b = p*perPart+oa, p*perPart+ob
				default:
					a = rng.Intn(accounts)
					b = rng.Intn(accounts - 1)
					if b >= a {
						b++
					}
				}
				obs := &obsTxn{writes: map[core.Key]uint64{}}
				keyA, keyB := core.KeyOf("acct", a), core.KeyOf("acct", b)
				err := e.RunTxn(typ, part, func(tx *Tx) error {
					obs.reads = obs.reads[:0]
					obs.id = tx.ID()
					obs.typ = typ
					obs.beginTS = txnOf(tx).BeginTS
					obs.txn = txnOf(tx)
					if typ == "audit" {
						// Read-only scan over a few accounts.
						n := 2 + rng.Intn(4)
						for j := 0; j < n; j++ {
							k := core.KeyOf("acct", rng.Intn(accounts))
							v, err := tx.Read(k)
							if err != nil {
								return err
							}
							w, _ := decAcct(t, v)
							obs.reads = append(obs.reads, obsRead{key: k, writer: w})
						}
						return nil
					}
					va, err := tx.Read(keyA)
					if err != nil {
						return err
					}
					wa, balA := decAcct(t, va)
					obs.reads = append(obs.reads, obsRead{key: keyA, writer: wa})
					vb, err := tx.Read(keyB)
					if err != nil {
						return err
					}
					wb, balB := decAcct(t, vb)
					obs.reads = append(obs.reads, obsRead{key: keyB, writer: wb})
					amt := int64(1 + rng.Intn(20))
					if err := tx.Write(keyA, encAcct(tx.ID(), balA-amt)); err != nil {
						return err
					}
					return tx.Write(keyB, encAcct(tx.ID(), balB+amt))
				})
				if err == nil {
					cts := obs.txn.CommitTS()
					if typ != "audit" {
						obs.writes[keyA] = cts
						obs.writes[keyB] = cts
					}
					h.add(obs)
				}
			}
		}(seed*1000 + int64(w))
	}
	wg.Wait()

	if len(h.txns) == 0 {
		t.Fatal("no transactions committed")
	}
	// Conservation: the committed balances must sum to the initial total.
	var sum int64
	for i := 0; i < accounts; i++ {
		_, bal := decAcct(t, e.ReadCommitted(core.KeyOf("acct", i)))
		sum += bal
	}
	if want := int64(accounts) * xferInitial; sum != want {
		t.Fatalf("seed %d: money not conserved: sum %d, want %d", seed, sum, want)
	}
	checkSerializable(t, h)

	if walDir == "" {
		return
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, st, err := Recover(opts, transferSpecs(), transferConfig(parts))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if st.Discarded != 0 {
		t.Fatalf("seed %d: recovery discarded %d transactions after a clean close", seed, st.Discarded)
	}
	for i := 0; i < accounts; i++ {
		k := core.KeyOf("acct", i)
		want := e.ReadCommitted(k)
		if w, _ := decAcct(t, want); w == 0 {
			continue // never transferred: only the unlogged initial load wrote it
		}
		if got := e2.ReadCommitted(k); string(got) != string(want) {
			t.Fatalf("seed %d: account %d recovered as %q, committed as %q", seed, i, got, want)
		}
	}
}

// TestTransferSerializabilityFuzz runs the randomized transfer workload
// over several seeds on the mixed SSI/2PL/RP/TSO+PBI tree.
func TestTransferSerializabilityFuzz(t *testing.T) {
	workers, txns := 8, 40
	if testing.Short() {
		workers, txns = 4, 20
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runTransferFuzz(t, seed, 16, 4, workers, txns, "")
		})
	}
}

// FuzzTransferSerializability is the native fuzz entry point: go's fuzzer
// mutates the seed (and with it every random choice in the workload);
// `go test` runs the corpus below, `go test -fuzz=Transfer` explores.
func FuzzTransferSerializability(f *testing.F) {
	f.Add(int64(7))
	f.Add(int64(42))
	f.Add(int64(20260728))
	f.Fuzz(func(t *testing.T, seed int64) {
		runTransferFuzz(t, seed, 12, 4, 4, 15, t.TempDir())
	})
}
