// Package seats implements the SEATS airline-reservation workload as adapted
// by the Tebaldi paper (§4.6.2): customer-name scans are removed in favour of
// secondary-index tables, the flight count is reduced to 50 to concentrate
// contention, each "flight" has 30,000 seats, and find_open_seats probes 30
// seats.
//
// The update transactions (new_reservation, delete_reservation,
// update_reservation) contend on per-flight state; Tebaldi's best
// configuration pipelines them with one TSO instance per flight under a 2PL
// cross-group parent, with SSI separating the read-only transactions
// (Figures 4.8 and 5.15).
package seats

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"

	"repro/tebaldi"
)

// Scale configures the generated database.
type Scale struct {
	Flights   int
	Seats     int // per flight
	Customers int
}

// DefaultScale mirrors the paper's adapted parameters.
func DefaultScale() Scale { return Scale{Flights: 50, Seats: 30000, Customers: 2000} }

// Transaction type names.
const (
	TxnNewReservation    = "new_reservation"
	TxnDeleteReservation = "delete_reservation"
	TxnUpdateReservation = "update_reservation"
	TxnUpdateCustomer    = "update_customer"
	TxnFindFlights       = "find_flights"
	TxnFindOpenSeats     = "find_open_seats"
)

// Specs returns the transaction type descriptions. The reservation types
// declare the flight count as their instance domain, enabling
// partition-by-instance (§5.4.2, Table 5.1).
func Specs(sc Scale) []*tebaldi.Spec {
	return []*tebaldi.Spec{
		{
			Name:           TxnNewReservation,
			Tables:         []string{"flight", "seat_idx", "reservation", "cust_idx"},
			WriteTables:    []string{"flight", "seat_idx", "reservation", "cust_idx"},
			InstanceDomain: sc.Flights,
		},
		{
			Name:           TxnDeleteReservation,
			Tables:         []string{"cust_idx", "reservation", "seat_idx", "flight"},
			WriteTables:    []string{"cust_idx", "reservation", "seat_idx", "flight"},
			InstanceDomain: sc.Flights,
		},
		{
			Name:           TxnUpdateReservation,
			Tables:         []string{"cust_idx", "reservation"},
			WriteTables:    []string{"reservation"},
			InstanceDomain: sc.Flights,
		},
		{
			Name:        TxnUpdateCustomer,
			Tables:      []string{"customer"},
			WriteTables: []string{"customer"},
		},
		{Name: TxnFindFlights, ReadOnly: true, Tables: []string{"flight"}},
		{Name: TxnFindOpenSeats, ReadOnly: true, Tables: []string{"flight", "seat_idx"}},
	}
}

func u64s(vals ...uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	return b
}

func dec(b []byte, i int) uint64 {
	if len(b) < (i+1)*8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[i*8:])
}

func flightKey(f int) tebaldi.Key      { return tebaldi.KeyOf("flight", f) }
func seatKey(f, s int) tebaldi.Key     { return tebaldi.KeyOf("seat_idx", f, s) }
func custKey(c int) tebaldi.Key        { return tebaldi.KeyOf("customer", c) }
func custIdxKey(c int) tebaldi.Key     { return tebaldi.KeyOf("cust_idx", c) }
func reservationKey(r int) tebaldi.Key { return tebaldi.KeyOf("reservation", r) }

// Load populates flights, customers and empty seat indexes. Seat index rows
// are created lazily (absent row = free seat) to keep load time proportional
// to flights, not seats.
func Load(db *tebaldi.DB, sc Scale) {
	for f := 0; f < sc.Flights; f++ {
		// flight: [seats_left, base_price]
		db.Load(flightKey(f), u64s(uint64(sc.Seats), uint64(100+f)))
	}
	for c := 0; c < sc.Customers; c++ {
		// customer: [balance, frequent_flyer_miles]
		db.Load(custKey(c), u64s(1000, 0))
	}
}

// Client generates SEATS transactions.
type Client struct {
	DB     *tebaldi.DB
	Scale  Scale
	resSeq atomic.Uint64
}

// NewClient builds a client.
func NewClient(db *tebaldi.DB, sc Scale) *Client { return &Client{DB: db, Scale: sc} }

// Op is one generated transaction: run it with DB.Exec.
type Op = tebaldi.Op

// Mix draws from the SEATS transaction mix.
func (c *Client) Mix(rng *rand.Rand) Op {
	r := rng.Float64()
	switch {
	case r < 0.35:
		return c.NewReservation(rng)
	case r < 0.50:
		return c.DeleteReservation(rng)
	case r < 0.60:
		return c.UpdateReservation(rng)
	case r < 0.70:
		return c.UpdateCustomer(rng)
	case r < 0.85:
		return c.FindFlights(rng)
	default:
		return c.FindOpenSeats(rng)
	}
}

// NewReservation reserves a random free seat on a flight for a customer.
func (c *Client) NewReservation(rng *rand.Rand) Op {
	cust := rng.Intn(c.Scale.Customers)
	// Customers are loyal to one flight (cust mod flights): reservation
	// conflicts then partition perfectly by flight, which is the paper's
	// premise for per-flight TSO groups ("transactions that access
	// different flights rarely conflict", §4.6.2) — and it lets the
	// customer-keyed delete/update transactions route to the correct
	// flight group at start time from their input alone.
	f := cust % c.Scale.Flights
	seat := rng.Intn(c.Scale.Seats)
	rid := int(c.resSeq.Add(1))
	fn := func(tx *tebaldi.Tx) error {
		// Declare the flight-row write up front (TSO promises, §4.4.4):
		// concurrent readers wait for the value instead of aborting
		// this writer under the read-timestamp rule.
		if err := tx.Promise(flightKey(f)); err != nil {
			return err
		}
		frow, err := tx.Read(flightKey(f))
		if err != nil {
			return err
		}
		left := dec(frow, 0)
		if left == 0 {
			return nil // flight full
		}
		srow, err := tx.Read(seatKey(f, seat))
		if err != nil {
			return err
		}
		if srow != nil && dec(srow, 0) != 0 {
			return nil // seat taken
		}
		if err := tx.Write(flightKey(f), u64s(left-1, dec(frow, 1))); err != nil {
			return err
		}
		if err := tx.Write(seatKey(f, seat), u64s(uint64(rid))); err != nil {
			return err
		}
		// reservation: [flight, seat, customer, attrs]
		if err := tx.Write(reservationKey(rid),
			u64s(uint64(f), uint64(seat), uint64(cust), 0)); err != nil {
			return err
		}
		return tx.Write(custIdxKey(cust), u64s(uint64(rid)))
	}
	return Op{Type: TxnNewReservation, Part: uint64(f), Fn: fn}
}

// DeleteReservation cancels a customer's latest reservation.
func (c *Client) DeleteReservation(rng *rand.Rand) Op {
	cust := rng.Intn(c.Scale.Customers)
	// The flight is unknown until the reservation is read; per the paper,
	// transactions are assigned to instance groups at start time by their
	// input, so delete keyed by customer uses a derived flight hint. We
	// use cust as the partition source — cross-flight conflicts are rare
	// and handled by the cross-group 2PL anyway (§4.6.2).
	fn := func(tx *tebaldi.Tx) error {
		idx, err := tx.Read(custIdxKey(cust))
		if err != nil {
			return err
		}
		if idx == nil || dec(idx, 0) == 0 {
			return nil // nothing to cancel
		}
		rid := int(dec(idx, 0))
		rrow, err := tx.Read(reservationKey(rid))
		if err != nil {
			return err
		}
		if rrow == nil || dec(rrow, 3) == ^uint64(0) {
			return nil
		}
		f, seat := int(dec(rrow, 0)), int(dec(rrow, 1))
		// Mark cancelled.
		if err := tx.Write(reservationKey(rid),
			u64s(dec(rrow, 0), dec(rrow, 1), dec(rrow, 2), ^uint64(0))); err != nil {
			return err
		}
		if err := tx.Write(custIdxKey(cust), u64s(0)); err != nil {
			return err
		}
		if err := tx.Write(seatKey(f, seat), u64s(0)); err != nil {
			return err
		}
		frow, err := tx.Read(flightKey(f))
		if err != nil {
			return err
		}
		return tx.Write(flightKey(f), u64s(dec(frow, 0)+1, dec(frow, 1)))
	}
	return Op{Type: TxnDeleteReservation, Part: uint64(cust % c.Scale.Flights), Fn: fn}
}

// UpdateReservation flips an attribute on a customer's reservation.
func (c *Client) UpdateReservation(rng *rand.Rand) Op {
	cust := rng.Intn(c.Scale.Customers)
	attr := uint64(rng.Intn(4) + 1)
	fn := func(tx *tebaldi.Tx) error {
		idx, err := tx.Read(custIdxKey(cust))
		if err != nil {
			return err
		}
		if idx == nil || dec(idx, 0) == 0 {
			return nil
		}
		rid := int(dec(idx, 0))
		rrow, err := tx.Read(reservationKey(rid))
		if err != nil {
			return err
		}
		if rrow == nil || dec(rrow, 3) == ^uint64(0) {
			return nil
		}
		return tx.Write(reservationKey(rid),
			u64s(dec(rrow, 0), dec(rrow, 1), dec(rrow, 2), attr))
	}
	return Op{Type: TxnUpdateReservation, Part: uint64(cust % c.Scale.Flights), Fn: fn}
}

// UpdateCustomer bumps a customer's frequent-flyer miles.
func (c *Client) UpdateCustomer(rng *rand.Rand) Op {
	cust := rng.Intn(c.Scale.Customers)
	fn := func(tx *tebaldi.Tx) error {
		crow, err := tx.Read(custKey(cust))
		if err != nil {
			return err
		}
		return tx.Write(custKey(cust), u64s(dec(crow, 0), dec(crow, 1)+100))
	}
	return Op{Type: TxnUpdateCustomer, Part: uint64(cust), Fn: fn}
}

// FindFlights reads a band of flights (read-only, long-ish).
func (c *Client) FindFlights(rng *rand.Rand) Op {
	start := rng.Intn(c.Scale.Flights)
	fn := func(tx *tebaldi.Tx) error {
		for i := 0; i < 10; i++ {
			f := (start + i) % c.Scale.Flights
			if _, err := tx.Read(flightKey(f)); err != nil {
				return err
			}
		}
		return nil
	}
	return Op{Type: TxnFindFlights, Part: uint64(start), Fn: fn}
}

// FindOpenSeats probes 30 seats of one flight (the paper's adapted size).
func (c *Client) FindOpenSeats(rng *rand.Rand) Op {
	f := rng.Intn(c.Scale.Flights)
	base := rng.Intn(c.Scale.Seats)
	fn := func(tx *tebaldi.Tx) error {
		if _, err := tx.Read(flightKey(f)); err != nil {
			return err
		}
		for i := 0; i < 30; i++ {
			s := (base + i*37) % c.Scale.Seats
			if _, err := tx.Read(seatKey(f, s)); err != nil {
				return err
			}
		}
		return nil
	}
	return Op{Type: TxnFindOpenSeats, Part: uint64(f), Fn: fn}
}

// ---- configurations (§4.6.2, Figures 4.8 / 5.15) ----

// ConfigMono2PL is the monolithic 2PL baseline.
func ConfigMono2PL() *tebaldi.Config {
	return tebaldi.Leaf(tebaldi.TwoPL,
		TxnNewReservation, TxnDeleteReservation, TxnUpdateReservation,
		TxnUpdateCustomer, TxnFindFlights, TxnFindOpenSeats)
}

// Config2Layer separates read-only transactions with SSI; 2PL regulates the
// update transactions.
func Config2Layer() *tebaldi.Config {
	return tebaldi.Inner(tebaldi.SSI,
		tebaldi.Leaf(tebaldi.None, TxnFindFlights, TxnFindOpenSeats),
		tebaldi.Leaf(tebaldi.TwoPL,
			TxnNewReservation, TxnDeleteReservation, TxnUpdateReservation, TxnUpdateCustomer),
	)
}

// Config3Layer adds per-flight TSO pipelining of the reservation
// transactions under a 2PL cross-group parent (the paper's best grouping).
func Config3Layer(sc Scale) *tebaldi.Config {
	perFlight := tebaldi.PartitionByInstance(tebaldi.TwoPL, sc.Flights,
		tebaldi.Leaf(tebaldi.TSO, TxnNewReservation, TxnDeleteReservation, TxnUpdateReservation))
	two := tebaldi.Inner(tebaldi.TwoPL, perFlight, tebaldi.Leaf(tebaldi.TwoPL, TxnUpdateCustomer))
	return tebaldi.Inner(tebaldi.SSI,
		tebaldi.Leaf(tebaldi.None, TxnFindFlights, TxnFindOpenSeats),
		two,
	)
}

// Config3LayerSingleTSO is the Table 5.1 counterpart without
// partition-by-instance: one TSO group for all flights.
func Config3LayerSingleTSO() *tebaldi.Config {
	return tebaldi.Inner(tebaldi.SSI,
		tebaldi.Leaf(tebaldi.None, TxnFindFlights, TxnFindOpenSeats),
		tebaldi.Inner(tebaldi.TwoPL,
			tebaldi.Leaf(tebaldi.TSO,
				TxnNewReservation, TxnDeleteReservation, TxnUpdateReservation),
			tebaldi.Leaf(tebaldi.TwoPL, TxnUpdateCustomer),
		),
	)
}
