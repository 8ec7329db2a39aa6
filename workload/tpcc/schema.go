// Package tpcc implements the TPC-C workload as adapted by the Tebaldi paper
// (§4.6): a transactional key-value schema (no scans — the customer-name
// scan is removed and a secondary-index table locates a customer's latest
// order), populated at a configurable warehouse count, with the five
// standard transactions plus the hot_item extension of §4.6.3.
//
// Transaction bodies follow the table access orders declared in their specs;
// Runtime Pipelining's static analysis derives its pipeline steps from those
// orders (this mirrors RP's preprocessing, which reorders operations to fit
// a global table order).
package tpcc

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/tebaldi"
)

// Scale configures the generated database.
type Scale struct {
	Warehouses int
	Districts  int // per warehouse
	Customers  int // per district
	Items      int
}

// DefaultScale mirrors the paper's contention-heavy setup: ten warehouses.
// Items and customers are scaled down from the TPC-C standard (100k/3k) to
// keep in-memory population fast; contention lives on the warehouse,
// district and stock rows, which are kept exact.
func DefaultScale() Scale {
	return Scale{Warehouses: 10, Districts: 10, Customers: 120, Items: 1000}
}

// Transaction type names.
const (
	TxnNewOrder    = "new_order"
	TxnPayment     = "payment"
	TxnDelivery    = "delivery"
	TxnOrderStatus = "order_status"
	TxnStockLevel  = "stock_level"
	TxnHotItem     = "hot_item"
)

// Specs returns the static transaction descriptions (table access orders
// feed RP's analysis). The hot_item spec is included only when withHotItem.
func Specs(withHotItem bool) []*tebaldi.Spec {
	specs := []*tebaldi.Spec{
		{
			Name:        TxnNewOrder,
			Tables:      []string{"warehouse", "district", "customer", "order", "new_order", "cust_idx", "item", "stock", "order_line"},
			WriteTables: []string{"district", "order", "new_order", "cust_idx", "stock", "order_line"},
		},
		{
			Name:        TxnPayment,
			Tables:      []string{"warehouse", "district", "customer", "history"},
			WriteTables: []string{"warehouse", "district", "customer", "history"},
		},
		{
			Name:        TxnDelivery,
			Tables:      []string{"new_order", "order", "order_line", "customer"},
			WriteTables: []string{"new_order", "order", "customer"},
		},
		{
			Name:     TxnOrderStatus,
			ReadOnly: true,
			Tables:   []string{"cust_idx", "customer", "order", "order_line"},
		},
		{
			Name:     TxnStockLevel,
			ReadOnly: true,
			Tables:   []string{"district", "order", "order_line", "stock"},
		},
	}
	if withHotItem {
		specs = append(specs, &tebaldi.Spec{
			Name:        TxnHotItem,
			Tables:      []string{"district", "order", "order_line", "item_stats"},
			WriteTables: []string{"item_stats"},
		})
	}
	return specs
}

// ---- row codecs (compact binary, no reflection) ----

func encU64s(vals ...uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	return b
}

func decU64(b []byte, i int) uint64 {
	if len(b) < (i+1)*8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[i*8:])
}

// Keys.

func warehouseKey(w int) tebaldi.Key          { return tebaldi.KeyOf("warehouse", w) }
func districtKey(w, d int) tebaldi.Key        { return tebaldi.KeyOf("district", w, d) }
func customerKey(w, d, c int) tebaldi.Key     { return tebaldi.KeyOf("customer", w, d, c) }
func orderKey(w, d, o int) tebaldi.Key        { return tebaldi.KeyOf("order", w, d, o) }
func newOrderPtrKey(w, d int) tebaldi.Key     { return tebaldi.KeyOf("new_order", w, d) }
func custIdxKey(w, d, c int) tebaldi.Key      { return tebaldi.KeyOf("cust_idx", w, d, c) }
func itemKey(i int) tebaldi.Key               { return tebaldi.KeyOf("item", i) }
func stockKey(w, i int) tebaldi.Key           { return tebaldi.KeyOf("stock", w, i) }
func orderLineKey(w, d, o, l int) tebaldi.Key { return tebaldi.KeyOf("order_line", w, d, o, l) }
func itemStatsKey(i int) tebaldi.Key          { return tebaldi.KeyOf("item_stats", i) }
func historyKey(w, d int, id uint64) tebaldi.Key {
	return tebaldi.K("history", fmt.Sprintf("%d.%d.%d", w, d, id))
}

// Load populates the database. Initial orders: each district starts with
// `seedOrders` delivered-less orders so delivery and stock_level have work.
func Load(db *tebaldi.DB, sc Scale) {
	const seedOrders = 25
	for w := 0; w < sc.Warehouses; w++ {
		// warehouse: [ytd, tax‰]
		db.Load(warehouseKey(w), encU64s(0, 7))
		for i := 0; i < sc.Items; i++ {
			// stock: [quantity, ytd]
			db.Load(stockKey(w, i), encU64s(50, 0))
		}
		for d := 0; d < sc.Districts; d++ {
			// district: [ytd, tax‰, next_o_id]
			db.Load(districtKey(w, d), encU64s(0, 8, seedOrders))
			// new_order queue pointer: [first_undelivered]
			db.Load(newOrderPtrKey(w, d), encU64s(0))
			for c := 0; c < sc.Customers; c++ {
				// customer: [balance, ytd_payment, payment_cnt, delivery_cnt]
				db.Load(customerKey(w, d, c), encU64s(1000, 0, 0, 0))
			}
			rng := rand.New(rand.NewSource(int64(w*100 + d)))
			for o := 0; o < seedOrders; o++ {
				cid := rng.Intn(sc.Customers)
				nl := 5 + rng.Intn(6)
				// order: [c_id, ol_cnt, carrier]
				db.Load(orderKey(w, d, o), encU64s(uint64(cid), uint64(nl), 0))
				db.Load(custIdxKey(w, d, cid), encU64s(uint64(o)))
				for l := 0; l < nl; l++ {
					item := rng.Intn(sc.Items)
					// order_line: [item, qty, amount]
					db.Load(orderLineKey(w, d, o, l), encU64s(uint64(item), 5, 100))
				}
			}
		}
	}
	for i := 0; i < sc.Items; i++ {
		// item: [price, im_id]
		db.Load(itemKey(i), encU64s(uint64(100+i%900), uint64(i)))
		db.Load(itemStatsKey(i), encU64s(0))
	}
}
