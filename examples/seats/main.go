// SEATS example: the airline-reservation workload under the per-flight TSO
// configuration (§4.6.2) — partition-by-instance in action. After the run,
// the example verifies the seats-left invariant: for every flight,
// seats_left + active reservations == total seats.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/tebaldi"
	"repro/workload/seats"
)

func main() {
	clients := flag.Int("clients", 64, "closed-loop clients")
	dur := flag.Duration("duration", 3*time.Second, "measurement duration")
	flag.Parse()

	sc := seats.DefaultScale()
	db, err := tebaldi.Open(tebaldi.Options{LockTimeout: 1500 * time.Millisecond},
		seats.Specs(sc), seats.Config3Layer(sc))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	seats.Load(db, sc)
	fmt.Println("CC tree:", db.ConfigString())

	client := seats.NewClient(db, sc)
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
	time.Sleep(300 * time.Millisecond)
	snap := db.Stats().Snapshot()
	time.Sleep(*dur)
	w := db.Stats().Since(snap)
	close(stop)
	wg.Wait()

	fmt.Printf("throughput: %.0f txn/s   abort rate: %.1f%%\n", w.Throughput, 100*w.AbortRate)

	// Invariant: per flight, seats_left equals total seats minus active
	// reservations (counted via the committed seat index).
	booked := make([]uint64, sc.Flights)
	for f := 0; f < sc.Flights; f++ {
		for s := 0; s < sc.Seats; s++ {
			v := db.ReadCommitted(tebaldi.KeyOf("seat_idx", f, s))
			if len(v) >= 8 && binary.LittleEndian.Uint64(v) != 0 {
				booked[f]++
			}
		}
	}
	for f := 0; f < sc.Flights; f++ {
		row := db.ReadCommitted(tebaldi.KeyOf("flight", f))
		left := binary.LittleEndian.Uint64(row)
		if left+booked[f] != uint64(sc.Seats) {
			log.Fatalf("flight %d: seats_left %d + booked %d != %d",
				f, left, booked[f], sc.Seats)
		}
	}
	fmt.Println("seats-left invariant OK on all flights")
}
