package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// txnOf hands a test the transaction behind tx. Marking it shared keeps
// PutTxn from recycling it, so the test may still read it after commit.
func txnOf(tx *Tx) *core.Txn {
	if !tx.finished {
		tx.t.MarkShared()
	}
	return tx.t
}

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func asU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func bankSpecs() []*core.Spec {
	return []*core.Spec{
		{Name: "transfer", Tables: []string{"account"}, WriteTables: []string{"account"}},
		{Name: "deposit", Tables: []string{"account"}, WriteTables: []string{"account"}},
		{Name: "audit", ReadOnly: true, Tables: []string{"account"}},
	}
}

func newBank(t *testing.T, cfg *NodeSpec, accounts int) *Engine {
	t.Helper()
	e, err := New(Options{Shards: 4, LockTimeout: 2 * time.Second}, bankSpecs(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < accounts; i++ {
		e.Load(core.KeyOf("account", i), u64(1000))
	}
	return e
}

// runBank hammers the engine with concurrent transfers and audits, then
// checks conservation of money — a serializability witness.
func runBank(t *testing.T, e *Engine, accounts, workers, txnsEach int) {
	t.Helper()
	if testing.Short() {
		// Keep the CI -race job fast: contention-heavy configs (RP
		// audits especially) multiply lock-timeout waits under the race
		// detector's slowdown.
		txnsEach /= 4
	}
	defer e.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < txnsEach; i++ {
				from := rng.Intn(accounts)
				to := (from + 1 + rng.Intn(accounts-1)) % accounts
				amount := uint64(rng.Intn(10))
				var err error
				if i%5 == 4 {
					// Audit: the sum a COMMITTED audit saw must be exact.
					// It is judged only after RunTxn returned nil: TSO and
					// RP expose uncommitted writes and cascade at commit,
					// so an attempt still in flight may see a debit
					// without its credit and must then fail to commit.
					var sum uint64
					err = e.RunTxn("audit", 0, func(tx *Tx) error {
						sum = 0
						for a := 0; a < accounts; a++ {
							v, err := tx.Read(core.KeyOf("account", a))
							if err != nil {
								return err
							}
							sum += asU64(v)
						}
						return nil
					})
					if err == nil && sum != uint64(accounts)*1000 {
						err = fmt.Errorf("audit committed an inconsistent total %d", sum)
					}
				} else {
					err = e.RunTxn("transfer", 0, func(tx *Tx) error {
						fv, err := tx.Read(core.KeyOf("account", from))
						if err != nil {
							return err
						}
						tv, err := tx.Read(core.KeyOf("account", to))
						if err != nil {
							return err
						}
						fb, tb := asU64(fv), asU64(tv)
						if fb < amount {
							return nil // insufficient funds, commit no-op
						}
						if err := tx.Write(core.KeyOf("account", from), u64(fb-amount)); err != nil {
							return err
						}
						return tx.Write(core.KeyOf("account", to), u64(tb+amount))
					})
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("worker error: %v", err)
	}
	// Final conservation check.
	var sum uint64
	for a := 0; a < accounts; a++ {
		sum += asU64(e.ReadCommitted(core.KeyOf("account", a)))
	}
	if sum != uint64(accounts)*1000 {
		t.Fatalf("money not conserved: total %d, want %d", sum, accounts*1000)
	}
	if e.Stats().Snapshot().Commits == 0 {
		t.Fatal("no transactions committed")
	}
}

func TestBankMonolithic2PL(t *testing.T) {
	cfg := G(Kind2PL, []string{"transfer", "deposit", "audit"})
	runBank(t, newBank(t, cfg, 16), 16, 8, 150)
}

func TestBankInitialConfigSSI(t *testing.T) {
	cfg := G(KindSSI, nil,
		G(KindNone, []string{"audit"}),
		G(Kind2PL, []string{"transfer", "deposit"}))
	runBank(t, newBank(t, cfg, 16), 16, 8, 150)
}

func TestBankLeafSSI(t *testing.T) {
	cfg := G(KindSSI, []string{"transfer", "deposit", "audit"})
	runBank(t, newBank(t, cfg, 16), 16, 6, 120)
}

func TestBankLeafTSO(t *testing.T) {
	cfg := G(KindTSO, []string{"transfer", "deposit", "audit"})
	runBank(t, newBank(t, cfg, 16), 16, 6, 120)
}

func TestBankLeafRP(t *testing.T) {
	cfg := G(KindRP, []string{"transfer", "deposit", "audit"})
	runBank(t, newBank(t, cfg, 16), 16, 6, 120)
}

func TestBankThreeLayer(t *testing.T) {
	cfg := G(KindSSI, nil,
		G(KindNone, []string{"audit"}),
		G(Kind2PL, nil,
			G(KindRP, []string{"transfer"}),
			G(Kind2PL, []string{"deposit"})))
	runBank(t, newBank(t, cfg, 16), 16, 8, 150)
}

// TestBankBatchedSSIRoot: both children update, so the SSI root batches.
func TestBankBatchedSSIRoot(t *testing.T) {
	cfg := G(KindSSI, nil,
		G(Kind2PL, []string{"transfer", "audit"}),
		G(Kind2PL, []string{"deposit"}))
	runBank(t, newBank(t, cfg, 16), 16, 6, 100)
}

func TestReadYourOwnWrites(t *testing.T) {
	cfg := G(Kind2PL, []string{"transfer", "deposit", "audit"})
	e := newBank(t, cfg, 2)
	defer e.Close()
	err := e.RunTxn("transfer", 0, func(tx *Tx) error {
		if err := tx.Write(core.KeyOf("account", 0), u64(42)); err != nil {
			return err
		}
		v, err := tx.Read(core.KeyOf("account", 0))
		if err != nil {
			return err
		}
		if asU64(v) != 42 {
			return fmt.Errorf("read own write: got %d", asU64(v))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := asU64(e.ReadCommitted(core.KeyOf("account", 0))); got != 42 {
		t.Fatalf("committed value = %d, want 42", got)
	}
}

func TestRollbackDiscardsWrites(t *testing.T) {
	cfg := G(Kind2PL, []string{"transfer", "deposit", "audit"})
	e := newBank(t, cfg, 2)
	defer e.Close()
	userErr := errors.New("changed my mind")
	err := e.RunTxn("transfer", 0, func(tx *Tx) error {
		if err := tx.Write(core.KeyOf("account", 0), u64(1)); err != nil {
			return err
		}
		return userErr
	})
	if !errors.Is(err, userErr) {
		t.Fatalf("err = %v, want user error", err)
	}
	if got := asU64(e.ReadCommitted(core.KeyOf("account", 0))); got != 1000 {
		t.Fatalf("aborted write leaked: %d", got)
	}
}

func TestReconfigurePartialRestartUnderLoad(t *testing.T) {
	cfgA := G(KindSSI, nil,
		G(KindNone, []string{"audit"}),
		G(Kind2PL, []string{"transfer", "deposit"}))
	cfgB := G(KindSSI, nil,
		G(KindNone, []string{"audit"}),
		G(Kind2PL, nil,
			G(KindRP, []string{"transfer"}),
			G(Kind2PL, []string{"deposit"})))
	e := newBank(t, cfgA, 16)
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				from := rng.Intn(16)
				to := (from + 1) % 16
				e.RunTxn("transfer", 0, func(tx *Tx) error {
					fv, err := tx.Read(core.KeyOf("account", from))
					if err != nil {
						return err
					}
					tv, err := tx.Read(core.KeyOf("account", to))
					if err != nil {
						return err
					}
					if asU64(fv) < 1 {
						return nil
					}
					if err := tx.Write(core.KeyOf("account", from), u64(asU64(fv)-1)); err != nil {
						return err
					}
					return tx.Write(core.KeyOf("account", to), u64(asU64(tv)+1))
				})
			}
		}(int64(w))
	}
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 4; i++ {
		next := cfgB
		if i%2 == 1 {
			next = cfgA
		}
		if err := e.Reconfigure(next, PartialRestart); err != nil {
			t.Fatalf("reconfigure %d: %v", i, err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	var sum uint64
	for a := 0; a < 16; a++ {
		sum += asU64(e.ReadCommitted(core.KeyOf("account", a)))
	}
	if sum != 16*1000 {
		t.Fatalf("money not conserved across reconfigurations: %d", sum)
	}
}

func TestReconfigureOnlineUpdateUnderLoad(t *testing.T) {
	cfgA := G(KindSSI, nil,
		G(KindNone, []string{"audit"}),
		G(Kind2PL, []string{"transfer", "deposit"}))
	cfgB := G(KindSSI, nil,
		G(KindNone, []string{"audit"}),
		G(Kind2PL, nil,
			G(KindRP, []string{"transfer"}),
			G(Kind2PL, []string{"deposit"})))
	e := newBank(t, cfgA, 16)
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := rng.Intn(16), rng.Intn(16)
				if a == b {
					continue
				}
				e.RunTxn("transfer", 0, func(tx *Tx) error {
					av, err := tx.Read(core.KeyOf("account", a))
					if err != nil {
						return err
					}
					bv, err := tx.Read(core.KeyOf("account", b))
					if err != nil {
						return err
					}
					if asU64(av) < 1 {
						return nil
					}
					if err := tx.Write(core.KeyOf("account", a), u64(asU64(av)-1)); err != nil {
						return err
					}
					return tx.Write(core.KeyOf("account", b), u64(asU64(bv)+1))
				})
			}
		}(int64(w))
	}
	time.Sleep(50 * time.Millisecond)
	if err := e.Reconfigure(cfgB, OnlineUpdate); err != nil {
		t.Fatalf("online update: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := e.Reconfigure(cfgA, OnlineUpdate); err != nil {
		t.Fatalf("online update back: %v", err)
	}
	close(stop)
	wg.Wait()
	var sum uint64
	for a := 0; a < 16; a++ {
		sum += asU64(e.ReadCommitted(core.KeyOf("account", a)))
	}
	if sum != 16*1000 {
		t.Fatalf("money not conserved across online updates: %d", sum)
	}
}

func TestPromisesTSO(t *testing.T) {
	cfg := G(KindTSO, []string{"transfer", "deposit", "audit"})
	e := newBank(t, cfg, 4)
	defer e.Close()
	err := e.RunTxn("transfer", 0, func(tx *Tx) error {
		if err := tx.Promise(core.KeyOf("account", 0)); err != nil {
			return err
		}
		return tx.Write(core.KeyOf("account", 0), u64(7))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := asU64(e.ReadCommitted(core.KeyOf("account", 0))); got != 7 {
		t.Fatalf("promised write = %d, want 7", got)
	}
}
