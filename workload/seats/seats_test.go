package seats

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/tebaldi"
)

func smallScale() Scale { return Scale{Flights: 4, Seats: 200, Customers: 60} }

func openSmall(t *testing.T, cfg *tebaldi.Config) (*tebaldi.DB, *Client) {
	t.Helper()
	sc := smallScale()
	db, err := tebaldi.Open(tebaldi.Options{Shards: 4, LockTimeout: 3 * time.Second},
		Specs(sc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	Load(db, sc)
	return db, NewClient(db, sc)
}

// checkSeats verifies the central SEATS invariant on a quiesced database:
// flight seats_left + booked seats == total seats, and the seat index agrees
// with the reservation table.
func checkSeats(t *testing.T, db *tebaldi.DB, sc Scale) {
	t.Helper()
	for f := 0; f < sc.Flights; f++ {
		var booked uint64
		for s := 0; s < sc.Seats; s++ {
			v := db.ReadCommitted(seatKey(f, s))
			if v == nil || dec(v, 0) == 0 {
				continue
			}
			booked++
			rid := int(dec(v, 0))
			rrow := db.ReadCommitted(reservationKey(rid))
			if rrow == nil {
				t.Fatalf("flight %d seat %d: index points at missing reservation %d", f, s, rid)
			}
			if int(dec(rrow, 0)) != f || int(dec(rrow, 1)) != s {
				t.Fatalf("reservation %d disagrees with seat index (%d,%d)", rid, f, s)
			}
			if dec(rrow, 3) == ^uint64(0) {
				t.Fatalf("flight %d seat %d: index points at cancelled reservation %d", f, s, rid)
			}
		}
		left := dec(db.ReadCommitted(flightKey(f)), 0)
		if left+booked != uint64(sc.Seats) {
			t.Fatalf("flight %d: seats_left %d + booked %d != %d", f, left, booked, sc.Seats)
		}
	}
}

func TestSEATSInvariantsAcrossConfigs(t *testing.T) {
	sc := smallScale()
	for name, cfg := range map[string]*tebaldi.Config{
		"mono-2pl":       ConfigMono2PL(),
		"2layer":         Config2Layer(),
		"3layer-pbi":     Config3Layer(sc),
		"3layer-one-tso": Config3LayerSingleTSO(),
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db, c := openSmall(t, cfg)
			defer db.Close()
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 50; i++ {
						if err := db.Exec(c.Mix(rng)); err != nil {
							t.Error(err)
							return
						}
					}
				}(int64(w) + 1)
			}
			wg.Wait()
			checkSeats(t, db, sc)
			snap := db.Stats().Snapshot()
			if snap.Commits == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}

func TestCustomerLoyaltyPartitionsConflicts(t *testing.T) {
	sc := smallScale()
	c := &Client{Scale: sc}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		op := c.NewReservation(rng)
		if op.Part >= uint64(sc.Flights) {
			t.Fatalf("part %d out of flight domain", op.Part)
		}
	}
}

func TestSpecsInstanceDomain(t *testing.T) {
	sc := DefaultScale()
	for _, s := range Specs(sc) {
		switch s.Name {
		case TxnNewReservation, TxnDeleteReservation, TxnUpdateReservation:
			if s.InstanceDomain != sc.Flights {
				t.Fatalf("%s instance domain = %d", s.Name, s.InstanceDomain)
			}
		case TxnFindFlights, TxnFindOpenSeats:
			if !s.ReadOnly {
				t.Fatalf("%s should be read-only", s.Name)
			}
		}
	}
}
