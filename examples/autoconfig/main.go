// Autoconfig example: start TPC-C on the general initial configuration of
// §5.2 and let Tebaldi's automatic configurator (Chapter 5) profile the live
// workload, detect the bottleneck conflict edges, and rewire the CC tree —
// no manual tuning.
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
	window := flag.Duration("window", 1500*time.Millisecond, "measurement window per candidate")
	flag.Parse()

	db, err := tebaldi.Open(tebaldi.Options{
		Profiling:   true,
		LockTimeout: 400 * time.Millisecond,
	}, tpcc.Specs(false), nil) // nil = initial configuration
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	sc := tpcc.DefaultScale()
	tpcc.Load(db, sc)
	client := tpcc.NewClient(db, sc)
	fmt.Println("initial CC tree:", db.ConfigString())

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
				_ = db.Exec(op)
			}
		}(int64(i) + 1)
	}
	time.Sleep(2 * time.Second) // warm up past the cold-start conflict burst

	res, err := db.AutoConfigure(tebaldi.AutoConfigOptions{
		MeasureWindow: *window,
		MaxIterations: 6,
		Log: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	close(stop)
	wg.Wait()

	fmt.Printf("\niterations: %d\n", len(res.Iterations))
	fmt.Printf("final CC tree: %s\n", res.Final)
	fmt.Printf("final throughput: %.0f txn/s\n", res.FinalThroughput)
}
