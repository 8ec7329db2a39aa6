package engine

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

func TestDiffSpecEqual(t *testing.T) {
	a := G(KindSSI, nil, G(KindNone, []string{"r"}), G(Kind2PL, []string{"w"}))
	b := a.Clone()
	if _, eq := diffSpec(a, b); !eq {
		t.Fatal("identical specs reported different")
	}
}

func TestDiffSpecChildChange(t *testing.T) {
	a := G(KindSSI, nil, G(KindNone, []string{"r"}), G(Kind2PL, []string{"w1", "w2"}))
	b := G(KindSSI, nil, G(KindNone, []string{"r"}),
		G(Kind2PL, nil, G(KindRP, []string{"w1"}), G(Kind2PL, []string{"w2"})))
	path, eq := diffSpec(a, b)
	if eq || !reflect.DeepEqual(path, []int{1}) {
		t.Fatalf("path=%v eq=%v", path, eq)
	}
}

func TestDiffSpecRootChange(t *testing.T) {
	a := G(KindSSI, nil, G(KindNone, []string{"r"}), G(Kind2PL, []string{"w"}))
	b := G(Kind2PL, nil, G(KindNone, []string{"r"}), G(Kind2PL, []string{"w"}))
	path, eq := diffSpec(a, b)
	if eq || path != nil {
		t.Fatalf("root change: path=%v eq=%v", path, eq)
	}
}

func TestDiffSpecMultipleChildrenChangedIsNodeLevel(t *testing.T) {
	a := G(KindSSI, nil, G(KindNone, []string{"r"}), G(Kind2PL, []string{"w"}))
	b := G(KindSSI, nil, G(Kind2PL, []string{"r"}), G(KindRP, []string{"w"}))
	path, eq := diffSpec(a, b)
	if eq || path != nil {
		t.Fatalf("multi-child change should be node-level: path=%v eq=%v", path, eq)
	}
}

func TestDiffSpecDeepChange(t *testing.T) {
	mk := func(kind Kind) *NodeSpec {
		return G(KindSSI, nil,
			G(KindNone, []string{"r"}),
			G(Kind2PL, nil,
				G(KindRP, []string{"a"}),
				G(kind, []string{"b"})))
	}
	path, eq := diffSpec(mk(Kind2PL), mk(KindTSO))
	if eq || !reflect.DeepEqual(path, []int{1, 1}) {
		t.Fatalf("path=%v eq=%v", path, eq)
	}
}

// clonedTSO is 2PL[ 2PL[4x TSO{t}] ]: an inner node cloning one TSO
// template per instance partition; kind replaces the template's mechanism.
func clonedTSO(kind Kind) *NodeSpec {
	return G(Kind2PL, nil, &NodeSpec{Kind: Kind2PL, Clones: 4,
		Children: []*NodeSpec{G(kind, []string{"t"})}})
}

// TestDiffSpecCloneTemplateIsNodeLevel: a change inside a cloned template is
// a change of the cloning node, which stands for all of its clones.
func TestDiffSpecCloneTemplateIsNodeLevel(t *testing.T) {
	path, eq := diffSpec(clonedTSO(KindTSO), clonedTSO(KindRP))
	if eq || !reflect.DeepEqual(path, []int{0}) {
		t.Fatalf("path=%v eq=%v, want the cloning node [0]", path, eq)
	}
}

func TestNodeSpecCloneIsDeep(t *testing.T) {
	a := G(KindSSI, []string{"x"}, G(Kind2PL, []string{"y"}))
	b := a.Clone()
	b.Types[0] = "z"
	b.Children[0].Kind = KindRP
	if a.Types[0] != "x" || a.Children[0].Kind != Kind2PL {
		t.Fatal("clone aliases the original")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not equal to original")
	}
}

func TestAllTypes(t *testing.T) {
	cfg := G(KindSSI, []string{"a"},
		G(KindNone, []string{"b"}),
		G(Kind2PL, nil, G(KindRP, []string{"c", "d"})))
	got := cfg.AllTypes()
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for _, typ := range got {
		if !want[typ] {
			t.Fatalf("unexpected %s", typ)
		}
	}
}

func TestConfigStringRendersTree(t *testing.T) {
	cfg := G(KindSSI, nil,
		G(KindNone, []string{"os", "sl"}),
		G(Kind2PL, nil, G(KindRP, []string{"no", "pay"}), G(KindRP, []string{"del"})))
	want := "ssi[ none{os,sl} 2pl[ rp{no,pay} rp{del} ] ]"
	if got := cfg.String(); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestConfigStringRendersClones(t *testing.T) {
	if got, want := clonedTSO(KindTSO).String(), "2pl[ 2pl[4x tso{t}] ]"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestOnlineUpdateEqualConfigIsNoop(t *testing.T) {
	cfg := G(KindSSI, nil, G(KindNone, []string{"audit"}), G(Kind2PL, []string{"transfer", "deposit"}))
	e := newBank(t, cfg, 4)
	defer e.Close()
	if err := e.Reconfigure(cfg.Clone(), OnlineUpdate); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureRejectsUnknownKind(t *testing.T) {
	cfg := G(KindSSI, nil, G(KindNone, []string{"audit"}), G(Kind2PL, []string{"transfer", "deposit"}))
	e := newBank(t, cfg, 4)
	defer e.Close()
	bad := cfg.Clone()
	bad.Children[1].Kind = "bogus"
	if err := e.Reconfigure(bad, PartialRestart); err == nil {
		t.Fatal("bogus kind accepted")
	}
	// The engine must still work on the old tree.
	if err := e.RunTxn("transfer", 0, func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineUpdateReplacesEveryClone: an online update of a cloned template
// rebuilds the cloning node, so every clone runs the new mechanism and every
// instance partition routes to one of them.
func TestOnlineUpdateReplacesEveryClone(t *testing.T) {
	specs := []*core.Spec{{Name: "t", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}
	e, err := New(Options{Shards: 2}, specs, clonedTSO(KindTSO))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	next := clonedTSO(KindRP)
	if err := e.Reconfigure(next, OnlineUpdate); err != nil {
		t.Fatal(err)
	}
	var clones []string
	for _, c := range e.tree.Root.Children[0].Children {
		clones = append(clones, c.CC.Name())
	}
	if want := []string{"RP", "RP", "RP", "RP"}; !reflect.DeepEqual(clones, want) {
		t.Fatalf("clones run %v, want %v", clones, want)
	}
	if got, want := e.ConfigString(), "2PL[ 2PL[4x RP{t}] ]"; got != want || !e.Config().Equal(next) {
		t.Fatalf("ConfigString %q (want %q), Config %v (want %v)", got, want, e.Config(), next)
	}
	leaves := map[*core.Node]bool{}
	for part := uint64(0); part < 4; part++ {
		tx, err := e.Begin("t", part)
		if err != nil {
			t.Fatal(err)
		}
		leaf := txnOf(tx).Leaf()
		tx.Rollback(nil)
		if leaf.CC.Name() != "RP" {
			t.Fatalf("part %d runs under %s, want RP", part, leaf.CC.Name())
		}
		leaves[leaf] = true
	}
	if len(leaves) != 4 {
		t.Fatalf("parts 0-3 reached %d leaves, want 4", len(leaves))
	}
}

// TestOnlineUpdateRebuildsAncestorWhoseFactsChange: 2PL[ RP{a} RP{b} ] ->
// 2PL[ RP{a} TSO{b} ] changes one leaf, but the root 2PL derived from its
// subtree, when it was built, that nothing below needs read records. The
// update must leave the root recording reads, as a tree built from the new
// spec has it. A change that moves no ancestor's facts keeps the live root.
func TestOnlineUpdateRebuildsAncestorWhoseFactsChange(t *testing.T) {
	specs := []*core.Spec{
		{Name: "a", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
		{Name: "b", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
	}
	open := func(cfg *NodeSpec) *Engine {
		e, err := New(Options{Shards: 2, GCInterval: -1}, specs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	rootFacts := func(e *Engine) any { return e.tree.Root.CC.(deriver).DerivedFacts() }
	leafB := func(kind Kind) *NodeSpec {
		return G(Kind2PL, nil, G(KindRP, []string{"a"}), G(kind, []string{"b"}))
	}

	e := open(leafB(KindRP))
	if err := e.Reconfigure(leafB(KindTSO), OnlineUpdate); err != nil {
		t.Fatal(err)
	}
	if got, want := rootFacts(e), rootFacts(open(leafB(KindTSO))); got != want || want != true {
		t.Fatalf("root 2PL records reads: %v after the online update, %v when built from the spec; want true", got, want)
	}

	e = open(leafB(KindRP))
	root := e.tree.Root
	if err := e.Reconfigure(leafB(Kind2PL), OnlineUpdate); err != nil {
		t.Fatal(err)
	}
	if e.tree.Root != root || e.tree.Root.Children[1].CC.Name() != "2PL" {
		t.Fatalf("a leaf change that moves no ancestor's facts: root replaced %v, leaf %s", e.tree.Root != root, e.tree.Root.Children[1].CC.Name())
	}
}

// TestReconfigureWaitsForOpenTxn: a transaction held open across a
// reconfiguration of its type is never aborted by it. The reconfiguration
// fails once the drain bound expires and leaves the tree as it was; the
// gated type is admitted again, and the held transaction reads and commits.
func TestReconfigureWaitsForOpenTxn(t *testing.T) {
	cfgA := G(KindSSI, nil,
		G(KindNone, []string{"audit"}),
		G(Kind2PL, []string{"transfer", "deposit"}))
	cfgB := G(KindSSI, nil,
		G(KindNone, []string{"audit"}),
		G(Kind2PL, nil,
			G(KindRP, []string{"transfer"}),
			G(Kind2PL, []string{"deposit"})))
	for _, proto := range []Protocol{PartialRestart, OnlineUpdate} {
		t.Run(proto.String(), func(t *testing.T) {
			const lockTimeout = 20 * time.Millisecond
			e, err := New(Options{Shards: 4, LockTimeout: lockTimeout}, bankSpecs(), cfgA)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 2; i++ {
				e.Load(core.KeyOf("account", i), u64(1000))
			}
			held, err := e.Begin("transfer", 0)
			if err != nil {
				t.Fatal(err)
			}
			from, err := held.Read(core.KeyOf("account", 0))
			if err != nil {
				t.Fatal(err)
			}
			config, rendered := e.Config(), e.ConfigString()

			start := time.Now()
			if err := e.Reconfigure(cfgB, proto); err == nil {
				t.Fatal("reconfiguration succeeded with a transaction of a gated type open")
			}
			if took := time.Since(start); took < 2*lockTimeout {
				t.Fatalf("reconfiguration gave up after %v, before its drain bound %v", took, 2*lockTimeout)
			}
			if !e.Config().Equal(config) || e.ConfigString() != rendered {
				t.Fatalf("failed reconfiguration changed the tree: %s, want %s", e.ConfigString(), rendered)
			}

			admitted := make(chan error, 1)
			go func() {
				admitted <- e.RunTxn("deposit", 0, func(tx *Tx) error {
					_, err := tx.Read(core.KeyOf("account", 1))
					return err
				})
			}()
			select {
			case err := <-admitted:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a gated type is still blocked after the failed reconfiguration")
			}

			to, err := held.Read(core.KeyOf("account", 1))
			if err != nil {
				t.Fatalf("held transaction's read after the reconfiguration: %v", err)
			}
			if err := held.Write(core.KeyOf("account", 0), u64(asU64(from)-1)); err != nil {
				t.Fatal(err)
			}
			if err := held.Write(core.KeyOf("account", 1), u64(asU64(to)+1)); err != nil {
				t.Fatal(err)
			}
			if err := held.Commit(); err != nil {
				t.Fatalf("held transaction's commit: %v", err)
			}
			if got := asU64(e.ReadCommitted(core.KeyOf("account", 1))); got != 1001 {
				t.Fatalf("account 1 = %d after the held transfer, want 1001", got)
			}
			// With nothing open, the same reconfiguration succeeds.
			if err := e.Reconfigure(cfgB, proto); err != nil {
				t.Fatal(err)
			}
			if !e.Config().Equal(cfgB) {
				t.Fatalf("config %s, want %s", e.Config(), cfgB)
			}
		})
	}
}
