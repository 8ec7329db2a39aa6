// TPC-C example: run the full TPC-C mix under the paper's best manual
// configuration (the Tebaldi 3-layer tree of Figure 4.6d) and print
// per-transaction-type results, then verify cross-table invariants.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/tebaldi"
	"repro/workload/tpcc"
)

func main() {
	clients := flag.Int("clients", 64, "closed-loop clients")
	dur := flag.Duration("duration", 3*time.Second, "measurement duration")
	config := flag.String("config", "3layer", "one of: 2pl, ssi, callas1, callas2, 2layer, 3layer")
	flag.Parse()

	var cfg *tebaldi.Config
	switch *config {
	case "2pl":
		cfg = tpcc.ConfigMono2PL()
	case "ssi":
		cfg = tpcc.ConfigMonoSSI()
	case "callas1":
		cfg = tpcc.ConfigCallas1()
	case "callas2":
		cfg = tpcc.ConfigCallas2()
	case "2layer":
		cfg = tpcc.ConfigTebaldi2Layer()
	case "3layer":
		cfg = tpcc.ConfigTebaldi3Layer()
	default:
		log.Fatalf("unknown config %q", *config)
	}

	db, err := tebaldi.Open(tebaldi.Options{LockTimeout: 1500 * time.Millisecond},
		tpcc.Specs(false), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	sc := tpcc.DefaultScale()
	fmt.Println("loading", sc.Warehouses, "warehouses ...")
	tpcc.Load(db, sc)
	fmt.Println("CC tree:", db.ConfigString())

	client := tpcc.NewClient(db, sc)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
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
				op := client.Mix(rng)
				if err := db.Exec(op); err != nil {
					log.Printf("txn error: %v", err)
				}
			}
		}(int64(i) + 1)
	}

	time.Sleep(500 * time.Millisecond) // warm up
	snap := db.Stats().Snapshot()
	time.Sleep(*dur)
	w := db.Stats().Since(snap)
	close(stop)
	wg.Wait()

	fmt.Printf("\nthroughput: %.0f txn/s   abort rate: %.1f%%\n", w.Throughput, 100*w.AbortRate)
	for typ, wt := range w.PerType {
		fmt.Printf("  %-13s %8d commits  mean latency %v\n", typ, wt.Commits, wt.MeanLatency.Round(time.Microsecond))
	}
	if err := client.Check(db); err != nil {
		log.Fatalf("invariant violation: %v", err)
	}
	fmt.Println("invariants OK")
}
