package anomaly

import "repro/internal/engine"

// TreeSpec names one CC tree shape of the matrix. Build receives the
// pattern's transaction type names (one per transaction, in declaration
// order) and assigns them to the shape's groups; nested shapes split the
// types across children round-robin so the cross-child mechanism is
// actually exercised.
type TreeSpec struct {
	Name  string
	Build func(types []string) *engine.NodeSpec
}

func split(types []string) (even, odd []string) {
	for i, t := range types {
		if i%2 == 0 {
			even = append(even, t)
		} else {
			odd = append(odd, t)
		}
	}
	return even, odd
}

// SerializableTrees is the matrix every anomaly must be impossible on:
// each leaf mechanism alone, plus nested shapes including the two
// previously-buggy ones (RP over RP|2PL from hot-4layer, TSO over 2PL
// children) and a partition-by-instance tree.
func SerializableTrees() []TreeSpec {
	return []TreeSpec{
		{"leaf-2pl", func(types []string) *engine.NodeSpec {
			return engine.G(engine.Kind2PL, types)
		}},
		{"leaf-ssi", func(types []string) *engine.NodeSpec {
			return engine.G(engine.KindSSI, types)
		}},
		{"leaf-rp", func(types []string) *engine.NodeSpec {
			return engine.G(engine.KindRP, types)
		}},
		{"leaf-tso", func(types []string) *engine.NodeSpec {
			return engine.G(engine.KindTSO, types)
		}},
		{"2pl-over-rp", func(types []string) *engine.NodeSpec {
			even, odd := split(types)
			return engine.G(engine.Kind2PL, nil,
				engine.G(engine.KindRP, even),
				engine.G(engine.KindRP, odd))
		}},
		// The hot-4layer core: RP regulating an RP group against a 2PL
		// group (bug (1)'s shape).
		{"rp-over-rp-2pl", func(types []string) *engine.NodeSpec {
			even, odd := split(types)
			return engine.G(engine.KindRP, nil,
				engine.G(engine.KindRP, even),
				engine.G(engine.Kind2PL, odd))
		}},
		// TSO as a non-leaf over 2PL children (bug (2)'s shape).
		{"tso-nonleaf", func(types []string) *engine.NodeSpec {
			even, odd := split(types)
			return engine.G(engine.KindTSO, nil,
				engine.G(engine.Kind2PL, even),
				engine.G(engine.Kind2PL, odd))
		}},
		// Run declares every pattern transaction writing and every pattern
		// has at least two, so both children update and the SSI root
		// batches.
		{"ssi-batched", func(types []string) *engine.NodeSpec {
			even, odd := split(types)
			return engine.G(engine.KindSSI, nil,
				engine.G(engine.Kind2PL, even),
				engine.G(engine.Kind2PL, odd))
		}},
		// Partition-by-instance (§5.4.2): transactions route to clones by
		// instance partition; the driver assigns each transaction its
		// declaration index as partition, so cross-clone conflicts hit
		// the root 2PL while same-clone pairs are the SSI leaf's.
		{"by-instance-2pl", func(types []string) *engine.NodeSpec {
			return &engine.NodeSpec{
				Kind:     engine.Kind2PL,
				Clones:   2,
				Children: []*engine.NodeSpec{engine.G(engine.KindSSI, types)},
			}
		}},
	}
}

// ReadCommittedTree is the negative-control tree: a None group under an
// SSI root running in optimized mode. Update transactions read
// latest-committed state with no conflict regulation at all (same-child
// conflicts are delegated to the None leaf, which regulates nothing) —
// i.e. plain read committed. Patterns flagged ReadCommitted must exhibit
// their anomaly here.
func ReadCommittedTree(types []string) *engine.NodeSpec {
	return engine.G(engine.KindSSI, nil, engine.G(engine.KindNone, types))
}
