package tpcc

import (
	"math/rand"

	"repro/tebaldi"
)

// This file supports the Table 3.1 experiment (§3.4.1): new_order and
// stock_level run alone, under four grouping regimes. The "deadlock"
// variant reproduces runtime pipelining's preferred access order for
// new_order — stock before district — which deadlocks against stock_level's
// district-before-stock order at a 2PL cross-group layer; the "no deadlock"
// variant uses the district-first order.

// TxnNewOrderSF is the stock-first new_order variant.
const TxnNewOrderSF = "new_order_sf"

// PairSpecs returns the specs for the two-transaction experiment. When
// deadlock is true, new_order is replaced by its stock-first variant.
func PairSpecs(deadlock bool) []*tebaldi.Spec {
	specs := Specs(false)
	out := specs[:0]
	for _, s := range specs {
		if s.Name == TxnNewOrder || s.Name == TxnStockLevel {
			out = append(out, s)
		}
	}
	if deadlock {
		for _, s := range out {
			if s.Name == TxnNewOrder {
				s.Name = TxnNewOrderSF
				s.Tables = []string{"warehouse", "customer", "item", "stock",
					"district", "order", "new_order", "cust_idx", "order_line"}
			}
		}
	}
	return out
}

// PairConfig builds the grouping for one Table 3.1 column.
//   - "same":      RP{NO, SL} in one group
//   - "deadlock":  2PL[ RP{NO_sf}, None{SL} ] with stock-first new_order
//   - "separate":  2PL[ RP{NO},    None{SL} ]
//   - "noconflict": same tree as "separate"; disjoint warehouses come from
//     the generator.
func PairConfig(mode string) *tebaldi.Config {
	switch mode {
	case "same":
		return tebaldi.Leaf(tebaldi.RP, TxnNewOrder, TxnStockLevel)
	case "deadlock":
		return tebaldi.Inner(tebaldi.TwoPL,
			tebaldi.Leaf(tebaldi.RP, TxnNewOrderSF),
			tebaldi.Leaf(tebaldi.None, TxnStockLevel))
	default: // "separate", "noconflict"
		return tebaldi.Inner(tebaldi.TwoPL,
			tebaldi.Leaf(tebaldi.RP, TxnNewOrder),
			tebaldi.Leaf(tebaldi.None, TxnStockLevel))
	}
}

// PairGen returns a generator emitting 50/50 new_order / stock_level.
// stockFirst switches new_order to the deadlock-prone access order. When
// disjoint is true, new_order draws warehouses from the lower half and
// stock_level from the upper half (the "Separate - No Conflict" column).
func (c *Client) PairGen(stockFirst, disjoint bool) tebaldi.Gen {
	w := c.Scale.Warehouses
	return func(rng *rand.Rand) Op {
		noLo, noHi, slLo, slHi := 0, w, 0, w
		if disjoint {
			noLo, noHi, slLo, slHi = 0, w/2, w/2, w
		}
		if rng.Intn(2) == 0 {
			if stockFirst {
				return c.newOrderStockFirst(rng, noLo, noHi)
			}
			return c.newOrderRange(rng, noLo, noHi)
		}
		return c.stockLevelRange(rng, slLo, slHi)
	}
}

func (c *Client) newOrderRange(rng *rand.Rand, lo, hi int) Op {
	in := inputs{w: lo + rng.Intn(hi-lo), d: rng.Intn(c.Scale.Districts), c: rng.Intn(c.Scale.Customers)}
	return c.newOrderAt(in, rng, false)
}

func (c *Client) newOrderStockFirst(rng *rand.Rand, lo, hi int) Op {
	in := inputs{w: lo + rng.Intn(hi-lo), d: rng.Intn(c.Scale.Districts), c: rng.Intn(c.Scale.Customers)}
	return c.newOrderAt(in, rng, true)
}

func (c *Client) stockLevelRange(rng *rand.Rand, lo, hi int) Op {
	for {
		op := c.StockLevel(rng)
		if int(op.Part) >= lo && int(op.Part) < hi {
			return op
		}
	}
}

// newOrderAt builds a new_order at fixed inputs; stockFirst selects the
// deadlock-prone access order (stock and order tables before district).
func (c *Client) newOrderAt(in inputs, rng *rand.Rand, stockFirst bool) Op {
	items, qty := pickItems(rng, c.Scale.Items)
	nl := len(items)
	typ := TxnNewOrder
	if stockFirst {
		typ = TxnNewOrderSF
	}
	fn := func(tx *tebaldi.Tx) error {
		if _, err := tx.Read(warehouseKey(in.w)); err != nil {
			return err
		}
		readDistrict := func() (uint64, error) {
			drow, err := tx.Read(districtKey(in.w, in.d))
			if err != nil {
				return 0, err
			}
			oid := decU64(drow, 2)
			return oid, tx.Write(districtKey(in.w, in.d),
				encU64s(decU64(drow, 0), decU64(drow, 1), oid+1))
		}
		touchStock := func() error {
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
			return nil
		}
		writeOrder := func(oid uint64) error {
			if err := tx.Write(orderKey(in.w, in.d, int(oid)),
				encU64s(uint64(in.c), uint64(nl), 0)); err != nil {
				return err
			}
			if err := tx.Write(tebaldi.KeyOf("new_order", in.w, in.d, int(oid)), encU64s(1)); err != nil {
				return err
			}
			return tx.Write(custIdxKey(in.w, in.d, in.c), encU64s(oid))
		}
		writeLines := func(oid uint64) error {
			for i, it := range items {
				if err := tx.Write(orderLineKey(in.w, in.d, int(oid), i),
					encU64s(uint64(it), uint64(qty[i]), 100)); err != nil {
					return err
				}
			}
			return nil
		}
		readItems := func() error {
			for _, it := range items {
				if _, err := tx.Read(itemKey(it)); err != nil {
					return err
				}
			}
			return nil
		}

		if stockFirst {
			// warehouse, customer, item, stock, order tables, then
			// district last — RP's preferred order, deadlock-prone
			// against stock_level at a 2PL cross-group layer.
			if _, err := tx.Read(customerKey(in.w, in.d, in.c)); err != nil {
				return err
			}
			if err := readItems(); err != nil {
				return err
			}
			if err := touchStock(); err != nil {
				return err
			}
			// Order ids must still come from district; in the
			// reordered variant RP uses a reconnaissance-style
			// pre-assigned id derived from the district counter
			// read at the end.
			oid, err := readDistrict()
			if err != nil {
				return err
			}
			if err := writeOrder(oid); err != nil {
				return err
			}
			return writeLines(oid)
		}
		oid, err := readDistrict()
		if err != nil {
			return err
		}
		if _, err := tx.Read(customerKey(in.w, in.d, in.c)); err != nil {
			return err
		}
		if err := writeOrder(oid); err != nil {
			return err
		}
		if err := readItems(); err != nil {
			return err
		}
		if err := touchStock(); err != nil {
			return err
		}
		return writeLines(oid)
	}
	return Op{Type: typ, Part: uint64(in.w), Fn: fn}
}
