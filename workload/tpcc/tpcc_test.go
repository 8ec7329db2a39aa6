package tpcc

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/tebaldi"
)

func smallScale() Scale {
	return Scale{Warehouses: 2, Districts: 2, Customers: 20, Items: 50}
}

func openSmall(t *testing.T, cfg *tebaldi.Config, hot bool) (*tebaldi.DB, *Client) {
	t.Helper()
	db, err := tebaldi.Open(tebaldi.Options{Shards: 4, LockTimeout: 3 * time.Second},
		Specs(hot), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := smallScale()
	Load(db, sc)
	return db, NewClient(db, sc)
}

// hammer runs the mix concurrently and returns committed count.
func hammer(t *testing.T, db *tebaldi.DB, c *Client, mix func(*rand.Rand) Op, workers, each int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < each; i++ {
				if err := db.Exec(mix(rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
}

func u64At(b []byte, i int) uint64 {
	if len(b) < (i+1)*8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[i*8:])
}

// checkMoneyFlow verifies the TPC-C money invariant on a quiesced database:
// warehouse YTD equals the sum of its districts' YTDs (payment updates both
// atomically).
func checkMoneyFlow(t *testing.T, db *tebaldi.DB, sc Scale) {
	t.Helper()
	for w := 0; w < sc.Warehouses; w++ {
		wytd := u64At(db.ReadCommitted(warehouseKey(w)), 0)
		var dytd uint64
		for d := 0; d < sc.Districts; d++ {
			dytd += u64At(db.ReadCommitted(districtKey(w, d)), 0)
		}
		if wytd != dytd {
			t.Fatalf("warehouse %d: w_ytd %d != sum(d_ytd) %d — payment atomicity broken",
				w, wytd, dytd)
		}
	}
}

// checkOrders verifies order-flow invariants: district next_o_id matches the
// dense range of existing orders, and every order has its declared lines.
func checkOrders(t *testing.T, db *tebaldi.DB, sc Scale) {
	t.Helper()
	for w := 0; w < sc.Warehouses; w++ {
		for d := 0; d < sc.Districts; d++ {
			next := int(u64At(db.ReadCommitted(districtKey(w, d)), 2))
			for o := 0; o < next; o++ {
				orow := db.ReadCommitted(orderKey(w, d, o))
				if orow == nil {
					t.Fatalf("w%d d%d: order %d missing below next_o_id %d", w, d, o, next)
				}
				nl := int(u64At(orow, 1))
				for l := 0; l < nl; l++ {
					if db.ReadCommitted(orderLineKey(w, d, o, l)) == nil {
						t.Fatalf("w%d d%d o%d: line %d missing (of %d)", w, d, o, l, nl)
					}
				}
			}
			if db.ReadCommitted(orderKey(w, d, next)) != nil {
				t.Fatalf("w%d d%d: order exists at next_o_id %d", w, d, next)
			}
		}
	}
}

func configsUnderTest() map[string]*tebaldi.Config {
	return map[string]*tebaldi.Config{
		"mono-2pl":       ConfigMono2PL(),
		"mono-ssi":       ConfigMonoSSI(),
		"callas-1":       ConfigCallas1(),
		"callas-2":       ConfigCallas2(),
		"tebaldi-2layer": ConfigTebaldi2Layer(),
		"tebaldi-3layer": ConfigTebaldi3Layer(),
	}
}

// TestTPCCInvariantsAcrossConfigs runs the full mix under every evaluated
// configuration and checks cross-table invariants — the workload-level
// serializability witness.
func TestTPCCInvariantsAcrossConfigs(t *testing.T) {
	for name, cfg := range configsUnderTest() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db, c := openSmall(t, cfg, false)
			defer db.Close()
			hammer(t, db, c, c.Mix, 6, 40)
			if err := c.Check(db); err != nil {
				t.Fatal(err)
			}
			checkMoneyFlow(t, db, c.Scale)
			checkOrders(t, db, c.Scale)
			if db.Stats().Snapshot().Commits == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}

func TestTPCCHotItemConfigs(t *testing.T) {
	for name, cfg := range map[string]*tebaldi.Config{
		"hot-3layer": ConfigHot3Layer(),
		"hot-4layer": ConfigHot4Layer(),
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db, c := openSmall(t, cfg, true)
			defer db.Close()
			hammer(t, db, c, c.HotMix, 4, 30)
			checkMoneyFlow(t, db, c.Scale)
			if err := c.Check(db); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTPCCPairConfigs(t *testing.T) {
	for _, mode := range []string{"same", "separate", "noconflict"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			db, err := tebaldi.Open(tebaldi.Options{Shards: 4, LockTimeout: 3 * time.Second},
				PairSpecs(false), PairConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			sc := smallScale()
			Load(db, sc)
			c := NewClient(db, sc)
			pg := c.PairGen(false, mode == "noconflict")
			hammer(t, db, c, func(rng *rand.Rand) Op { return pg(rng) }, 4, 30)
			checkOrders(t, db, sc)
		})
	}
}

// TestTPCCDeadlockVariantMakesProgress: the stock-first variant deadlocks at
// the cross-group 2PL, but timeouts must keep the system live.
func TestTPCCDeadlockVariantMakesProgress(t *testing.T) {
	db, err := tebaldi.Open(tebaldi.Options{Shards: 4, LockTimeout: 100 * time.Millisecond},
		PairSpecs(true), PairConfig("deadlock"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sc := smallScale()
	Load(db, sc)
	c := NewClient(db, sc)
	pg := c.PairGen(true, false)
	hammer(t, db, c, func(rng *rand.Rand) Op { return pg(rng) }, 4, 10)
	if db.Stats().Snapshot().Commits == 0 {
		t.Fatal("deadlock variant made no progress")
	}
	checkOrders(t, db, sc)
}

func TestSpecsTableOrdersMatchTransactions(t *testing.T) {
	// The declared access orders must cover every table each transaction
	// touches (RP's analysis relies on them).
	specs := Specs(true)
	byName := map[string][]string{}
	for _, s := range specs {
		byName[s.Name] = s.Tables
	}
	want := map[string][]string{
		TxnPayment:  {"warehouse", "district", "customer", "history"},
		TxnDelivery: {"new_order", "order", "order_line", "customer"},
	}
	for name, tables := range want {
		got := byName[name]
		if len(got) != len(tables) {
			t.Fatalf("%s tables = %v", name, got)
		}
		for i := range tables {
			if got[i] != tables[i] {
				t.Fatalf("%s tables = %v, want %v", name, got, tables)
			}
		}
	}
}
