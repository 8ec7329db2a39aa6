package tpcc

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/tebaldi"
)

// Client generates and executes TPC-C transactions against a database. It is
// safe for concurrent use; each goroutine should use its own *rand.Rand.
type Client struct {
	DB    *tebaldi.DB
	Scale Scale
	// histSeq generates unique history row ids.
	histSeq atomic.Uint64
}

// NewClient builds a client for a database populated at the given scale.
func NewClient(db *tebaldi.DB, sc Scale) *Client { return &Client{DB: db, Scale: sc} }

// pickItems draws 5-15 distinct item ids, sorted ascending — ordered lock
// acquisition on stock rows prevents intra-step deadlocks between new_order
// instances, as in standard TPC-C implementations.
func pickItems(rng *rand.Rand, nItems int) (items, qty []int) {
	nl := 5 + rng.Intn(11)
	seen := map[int]bool{}
	for len(items) < nl {
		it := rng.Intn(nItems)
		if !seen[it] {
			seen[it] = true
			items = append(items, it)
		}
	}
	sort.Ints(items)
	qty = make([]int, nl)
	for i := range qty {
		qty[i] = 1 + rng.Intn(10)
	}
	return items, qty
}

// Op is one generated transaction: run it with DB.Exec.
type Op = tebaldi.Op

// Mix draws a transaction from the standard TPC-C mix (§4.6.1):
// 45% new_order, 43% payment, 4% each of delivery/order_status/stock_level.
func (c *Client) Mix(rng *rand.Rand) Op {
	r := rng.Float64()
	switch {
	case r < 0.45:
		return c.NewOrder(rng)
	case r < 0.88:
		return c.Payment(rng)
	case r < 0.92:
		return c.Delivery(rng)
	case r < 0.96:
		return c.OrderStatus(rng)
	default:
		return c.StockLevel(rng)
	}
}

// HotMix is the §4.6.3 mix: 41.8% new_order, 41.8% payment, 4.1% each of the
// rest including hot_item.
func (c *Client) HotMix(rng *rand.Rand) Op {
	r := rng.Float64()
	switch {
	case r < 0.418:
		return c.NewOrder(rng)
	case r < 0.836:
		return c.Payment(rng)
	case r < 0.877:
		return c.Delivery(rng)
	case r < 0.918:
		return c.OrderStatus(rng)
	case r < 0.959:
		return c.StockLevel(rng)
	default:
		return c.HotItem(rng)
	}
}

// restrictWarehouse, when >= 0, pins transaction inputs to one warehouse
// (the "Separate - No Conflict" scenario of Table 3.1 assigns disjoint
// warehouses per type).
type inputs struct {
	w, d, c int
}

func (c *Client) pick(rng *rand.Rand) inputs {
	return inputs{
		w: rng.Intn(c.Scale.Warehouses),
		d: rng.Intn(c.Scale.Districts),
		c: rng.Intn(c.Scale.Customers),
	}
}

// NewOrder builds a new_order transaction: create an order of 5-15 lines,
// updating district's next order id and the per-item stock rows. Operations
// are ordered warehouse -> district -> customer -> order -> new_order ->
// cust_idx -> item* -> stock* -> order_line* to satisfy RP's pipeline.
func (c *Client) NewOrder(rng *rand.Rand) Op {
	in := c.pick(rng)
	items, qty := pickItems(rng, c.Scale.Items)
	nl := len(items)
	fn := func(tx *tebaldi.Tx) error {
		wrow, err := tx.Read(warehouseKey(in.w))
		if err != nil {
			return err
		}
		_ = decU64(wrow, 1) // w_tax
		drow, err := tx.Read(districtKey(in.w, in.d))
		if err != nil {
			return err
		}
		oid := decU64(drow, 2)
		if err := tx.Write(districtKey(in.w, in.d),
			encU64s(decU64(drow, 0), decU64(drow, 1), oid+1)); err != nil {
			return err
		}
		crow, err := tx.Read(customerKey(in.w, in.d, in.c))
		if err != nil {
			return err
		}
		_ = crow
		if err := tx.Write(orderKey(in.w, in.d, int(oid)),
			encU64s(uint64(in.c), uint64(nl), 0)); err != nil {
			return err
		}
		// new_order marker: bump nothing, order existence is the queue;
		// touch the pointer row's table via a per-order marker key.
		if err := tx.Write(tebaldi.KeyOf("new_order", in.w, in.d, int(oid)), encU64s(1)); err != nil {
			return err
		}
		if err := tx.Write(custIdxKey(in.w, in.d, in.c), encU64s(oid)); err != nil {
			return err
		}
		prices := make([]uint64, nl)
		for i, it := range items {
			irow, err := tx.Read(itemKey(it))
			if err != nil {
				return err
			}
			prices[i] = decU64(irow, 0)
		}
		for i, it := range items {
			srow, err := tx.Read(stockKey(in.w, it))
			if err != nil {
				return err
			}
			q := decU64(srow, 0)
			if q < uint64(qty[i])+10 {
				q += 91
			}
			if err := tx.Write(stockKey(in.w, it),
				encU64s(q-uint64(qty[i]), decU64(srow, 1)+uint64(qty[i]))); err != nil {
				return err
			}
		}
		for i, it := range items {
			amount := prices[i] * uint64(qty[i])
			if err := tx.Write(orderLineKey(in.w, in.d, int(oid), i),
				encU64s(uint64(it), uint64(qty[i]), amount)); err != nil {
				return err
			}
		}
		return nil
	}
	return Op{Type: TxnNewOrder, Part: uint64(in.w), Fn: fn}
}

// Payment builds a payment transaction: update warehouse/district YTD and
// the customer balance, and append a history row.
func (c *Client) Payment(rng *rand.Rand) Op {
	in := c.pick(rng)
	amount := uint64(1 + rng.Intn(5000))
	hid := c.histSeq.Add(1)
	fn := func(tx *tebaldi.Tx) error {
		wrow, err := tx.Read(warehouseKey(in.w))
		if err != nil {
			return err
		}
		if err := tx.Write(warehouseKey(in.w),
			encU64s(decU64(wrow, 0)+amount, decU64(wrow, 1))); err != nil {
			return err
		}
		drow, err := tx.Read(districtKey(in.w, in.d))
		if err != nil {
			return err
		}
		if err := tx.Write(districtKey(in.w, in.d),
			encU64s(decU64(drow, 0)+amount, decU64(drow, 1), decU64(drow, 2))); err != nil {
			return err
		}
		crow, err := tx.Read(customerKey(in.w, in.d, in.c))
		if err != nil {
			return err
		}
		bal := decU64(crow, 0)
		if bal < amount {
			bal = 0
		} else {
			bal -= amount
		}
		if err := tx.Write(customerKey(in.w, in.d, in.c),
			encU64s(bal, decU64(crow, 1)+amount, decU64(crow, 2)+1, decU64(crow, 3))); err != nil {
			return err
		}
		return tx.Write(historyKey(in.w, in.d, hid), encU64s(uint64(in.c), amount))
	}
	return Op{Type: TxnPayment, Part: uint64(in.w), Fn: fn}
}

// Delivery builds a delivery transaction: deliver the oldest undelivered
// order in each district of a warehouse (batched by table for RP: new_order
// pointers first, then orders, then order lines, then customers).
func (c *Client) Delivery(rng *rand.Rand) Op {
	w := rng.Intn(c.Scale.Warehouses)
	carrier := uint64(1 + rng.Intn(10))
	nd := c.Scale.Districts
	fn := func(tx *tebaldi.Tx) error {
		oids := make([]int64, nd)
		for d := 0; d < nd; d++ {
			ptr, err := tx.Read(newOrderPtrKey(w, d))
			if err != nil {
				return err
			}
			next := decU64(ptr, 0)
			// Check the per-order marker; absent means nothing to
			// deliver in this district.
			marker, err := tx.Read(tebaldi.KeyOf("new_order", w, d, int(next)))
			if err != nil {
				return err
			}
			if marker == nil {
				oids[d] = -1
				continue
			}
			oids[d] = int64(next)
			if err := tx.Write(newOrderPtrKey(w, d), encU64s(next+1)); err != nil {
				return err
			}
		}
		cids := make([]uint64, nd)
		counts := make([]uint64, nd)
		for d := 0; d < nd; d++ {
			if oids[d] < 0 {
				continue
			}
			orow, err := tx.Read(orderKey(w, d, int(oids[d])))
			if err != nil {
				return err
			}
			if orow == nil {
				oids[d] = -1
				continue
			}
			cids[d] = decU64(orow, 0)
			counts[d] = decU64(orow, 1)
			if err := tx.Write(orderKey(w, d, int(oids[d])),
				encU64s(cids[d], counts[d], carrier)); err != nil {
				return err
			}
		}
		sums := make([]uint64, nd)
		for d := 0; d < nd; d++ {
			if oids[d] < 0 {
				continue
			}
			for l := 0; l < int(counts[d]); l++ {
				ol, err := tx.Read(orderLineKey(w, d, int(oids[d]), l))
				if err != nil {
					return err
				}
				sums[d] += decU64(ol, 2)
			}
		}
		for d := 0; d < nd; d++ {
			if oids[d] < 0 {
				continue
			}
			crow, err := tx.Read(customerKey(w, d, int(cids[d])))
			if err != nil {
				return err
			}
			if err := tx.Write(customerKey(w, d, int(cids[d])),
				encU64s(decU64(crow, 0)+sums[d], decU64(crow, 1),
					decU64(crow, 2), decU64(crow, 3)+1)); err != nil {
				return err
			}
		}
		return nil
	}
	return Op{Type: TxnDelivery, Part: uint64(w), Fn: fn}
}

// OrderStatus builds the read-only order_status transaction, locating the
// customer's latest order through the secondary-index table (the paper's
// adaptation replacing the name scan).
func (c *Client) OrderStatus(rng *rand.Rand) Op {
	in := c.pick(rng)
	fn := func(tx *tebaldi.Tx) error {
		idx, err := tx.Read(custIdxKey(in.w, in.d, in.c))
		if err != nil {
			return err
		}
		if idx == nil {
			return nil // customer has no orders yet
		}
		oid := decU64(idx, 0)
		if _, err := tx.Read(customerKey(in.w, in.d, in.c)); err != nil {
			return err
		}
		orow, err := tx.Read(orderKey(in.w, in.d, int(oid)))
		if err != nil {
			return err
		}
		if orow == nil {
			return nil
		}
		for l := 0; l < int(decU64(orow, 1)); l++ {
			if _, err := tx.Read(orderLineKey(in.w, in.d, int(oid), l)); err != nil {
				return err
			}
		}
		return nil
	}
	return Op{Type: TxnOrderStatus, Part: uint64(in.w), Fn: fn}
}

// StockLevel builds the read-only stock_level transaction: examine the order
// lines of the last 20 orders of a district and count low-stock items
// (Figure 3.1 / 5.3).
func (c *Client) StockLevel(rng *rand.Rand) Op {
	w := rng.Intn(c.Scale.Warehouses)
	d := rng.Intn(c.Scale.Districts)
	threshold := uint64(10 + rng.Intn(11))
	fn := func(tx *tebaldi.Tx) error {
		drow, err := tx.Read(districtKey(w, d))
		if err != nil {
			return err
		}
		next := int(decU64(drow, 2))
		lo := next - 20
		if lo < 0 {
			lo = 0
		}
		type lineRef struct{ o, l int }
		var lines []lineRef
		for o := lo; o < next; o++ {
			orow, err := tx.Read(orderKey(w, d, o))
			if err != nil {
				return err
			}
			if orow == nil {
				continue
			}
			for l := 0; l < int(decU64(orow, 1)); l++ {
				lines = append(lines, lineRef{o, l})
			}
		}
		seen := map[uint64]bool{}
		var items []int
		for _, lr := range lines {
			ol, err := tx.Read(orderLineKey(w, d, lr.o, lr.l))
			if err != nil {
				return err
			}
			if ol != nil && !seen[decU64(ol, 0)] {
				seen[decU64(ol, 0)] = true
				items = append(items, int(decU64(ol, 0)))
			}
		}
		// Sorted stock access, matching new_order's lock order.
		sort.Ints(items)
		low := 0
		for _, it := range items {
			srow, err := tx.Read(stockKey(w, it))
			if err != nil {
				return err
			}
			if decU64(srow, 0) < threshold {
				low++
			}
		}
		return nil
	}
	return Op{Type: TxnStockLevel, Part: uint64(w), Fn: fn}
}

// HotItem builds the §4.6.3 extension transaction (Figure 4.9): sample
// recent orders and bump per-item sale counters.
func (c *Client) HotItem(rng *rand.Rand) Op {
	w := rng.Intn(c.Scale.Warehouses)
	d := rng.Intn(c.Scale.Districts)
	fn := func(tx *tebaldi.Tx) error {
		drow, err := tx.Read(districtKey(w, d))
		if err != nil {
			return err
		}
		next := int(decU64(drow, 2))
		if next == 0 {
			return nil
		}
		oid := next - 1
		orow, err := tx.Read(orderKey(w, d, oid))
		if err != nil {
			return err
		}
		if orow == nil {
			return nil
		}
		n := int(decU64(orow, 1))
		items := make([]int, 0, n)
		for l := 0; l < n; l++ {
			ol, err := tx.Read(orderLineKey(w, d, oid, l))
			if err != nil {
				return err
			}
			if ol != nil {
				items = append(items, int(decU64(ol, 0)))
			}
		}
		sort.Ints(items) // ordered item_stats locking across hot_item instances
		for _, it := range items {
			srow, err := tx.Read(itemStatsKey(it))
			if err != nil {
				return err
			}
			if err := tx.Write(itemStatsKey(it), encU64s(decU64(srow, 0)+1)); err != nil {
				return err
			}
		}
		return nil
	}
	return Op{Type: TxnHotItem, Part: uint64(w), Fn: fn}
}

// Check verifies cross-table invariants on a quiesced database (test hook):
// district next_o_id never below the delivery pointer, and customer payment
// counters consistent with history row count would require scans, so we
// check the cheap invariant set.
func (c *Client) Check(db *tebaldi.DB) error {
	for w := 0; w < c.Scale.Warehouses; w++ {
		for d := 0; d < c.Scale.Districts; d++ {
			drow := db.ReadCommitted(districtKey(w, d))
			ptr := db.ReadCommitted(newOrderPtrKey(w, d))
			if decU64(ptr, 0) > decU64(drow, 2) {
				return fmt.Errorf("w%d d%d: delivery pointer %d beyond next_o_id %d",
					w, d, decU64(ptr, 0), decU64(drow, 2))
			}
		}
	}
	return nil
}
