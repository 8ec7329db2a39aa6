package anomaly

// LateWrite: t1 begins first (its read of y only starts it), t2 blind-writes
// x and commits, then t1 blind-writes x and commits, and t3 reads x. A
// mechanism that orders t1 before t2 (timestamp order) while the store
// orders t1's version after t2's (commit order) serves t3 one writer's
// value and leaves the other's as the final state — no serial order has
// both. The mechanism must make the two orders agree: refuse t1's late
// write, or order t1 after t2 everywhere.
//
// The anomaly needs two orders of one key's versions, so the single-version
// no-isolation simulator cannot exhibit it, and read committed does not
// admit it (there the one order is commit order).
func LateWrite() *Pattern {
	return &Pattern{
		Name:    "late-write",
		Initial: map[string]string{"x": "0", "y": "0"},
		Txns: []Txn{
			{Name: "t1", Ops: []Op{R("y"), W("x", "1"), C()}},
			{Name: "t2", Ops: []Op{W("x", "2"), C()}},
			{Name: "t3", Ops: []Op{R("x"), C()}},
		},
		Schedule: []string{"t1", "t2", "t2", "t1", "t1", "t3", "t3"},
		Anomalous: func(o *Outcome) bool {
			r := o.ReadsOf("t3")
			return o.Committed["t3"] && len(r) == 1 && r[0] != o.Final["x"]
		},
		MultiVersionOnly: true,
	}
}
