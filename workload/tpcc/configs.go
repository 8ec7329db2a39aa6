package tpcc

import "repro/tebaldi"

// The CC tree configurations evaluated in §4.6.1 (Figure 4.6) and §4.6.3.

// ConfigMono2PL is the monolithic two-phase-locking baseline.
func ConfigMono2PL() *tebaldi.Config {
	return tebaldi.Leaf(tebaldi.TwoPL,
		TxnNewOrder, TxnPayment, TxnDelivery, TxnOrderStatus, TxnStockLevel)
}

// ConfigMonoSSI is the monolithic serializable-snapshot-isolation baseline.
func ConfigMonoSSI() *tebaldi.Config {
	return tebaldi.Leaf(tebaldi.SSI,
		TxnNewOrder, TxnPayment, TxnDelivery, TxnOrderStatus, TxnStockLevel)
}

// ConfigCallas1 is Callas' original grouping (Fig 4.6a): 2PL cross-group
// over RP{NO,PAY}, RP{DEL} and the read-only group. Cross-group read-write
// conflicts between stock_level and new_order/payment throttle it.
func ConfigCallas1() *tebaldi.Config {
	return tebaldi.Inner(tebaldi.TwoPL,
		tebaldi.Leaf(tebaldi.RP, TxnNewOrder, TxnPayment),
		tebaldi.Leaf(tebaldi.RP, TxnDelivery),
		tebaldi.Leaf(tebaldi.None, TxnOrderStatus, TxnStockLevel),
	)
}

// ConfigCallas2 moves stock_level into the first RP group (Fig 4.6b),
// trading cross-group conflicts for a coarser pipeline.
func ConfigCallas2() *tebaldi.Config {
	return tebaldi.Inner(tebaldi.TwoPL,
		tebaldi.Leaf(tebaldi.RP, TxnNewOrder, TxnPayment, TxnStockLevel),
		tebaldi.Leaf(tebaldi.RP, TxnDelivery),
		tebaldi.Leaf(tebaldi.None, TxnOrderStatus),
	)
}

// ConfigTebaldi2Layer (Fig 4.6c): SSI cross-group separating the read-only
// transactions from one RP update group.
func ConfigTebaldi2Layer() *tebaldi.Config {
	return tebaldi.Inner(tebaldi.SSI,
		tebaldi.Leaf(tebaldi.None, TxnOrderStatus, TxnStockLevel),
		tebaldi.Leaf(tebaldi.RP, TxnNewOrder, TxnPayment, TxnDelivery),
	)
}

// ConfigTebaldi3Layer (Fig 4.6d): SSI over {read-only} and a 2PL subtree
// federating RP{NO,PAY} with RP{DEL} — the paper's best manual grouping.
func ConfigTebaldi3Layer() *tebaldi.Config {
	return tebaldi.Inner(tebaldi.SSI,
		tebaldi.Leaf(tebaldi.None, TxnOrderStatus, TxnStockLevel),
		tebaldi.Inner(tebaldi.TwoPL,
			tebaldi.Leaf(tebaldi.RP, TxnNewOrder, TxnPayment),
			tebaldi.Leaf(tebaldi.RP, TxnDelivery),
		),
	)
}

// ConfigHot3Layer keeps the three-layer tree and folds hot_item into the
// new_order/payment RP group (§4.6.3, first option — a coarser pipeline).
func ConfigHot3Layer() *tebaldi.Config {
	return tebaldi.Inner(tebaldi.SSI,
		tebaldi.Leaf(tebaldi.None, TxnOrderStatus, TxnStockLevel),
		tebaldi.Inner(tebaldi.TwoPL,
			tebaldi.Leaf(tebaldi.RP, TxnNewOrder, TxnPayment, TxnHotItem),
			tebaldi.Leaf(tebaldi.RP, TxnDelivery),
		),
	)
}

// ConfigHot4Layer gives hot_item its own group with RP as the cross-group
// mechanism against new_order/payment (§4.6.3, second option — Tebaldi's
// extensibility showcase).
func ConfigHot4Layer() *tebaldi.Config {
	return tebaldi.Inner(tebaldi.SSI,
		tebaldi.Leaf(tebaldi.None, TxnOrderStatus, TxnStockLevel),
		tebaldi.Inner(tebaldi.TwoPL,
			tebaldi.Inner(tebaldi.RP,
				tebaldi.Leaf(tebaldi.RP, TxnNewOrder, TxnPayment),
				tebaldi.Leaf(tebaldi.TwoPL, TxnHotItem),
			),
			tebaldi.Leaf(tebaldi.RP, TxnDelivery),
		),
	)
}
