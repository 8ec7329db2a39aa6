package engine

import (
	"reflect"
	"strings"
	"testing"
)

// TestStatsPerTypeListsTypesThatRan: a type appears in Snapshot.PerType once
// it has committed or aborted. The counters every registered type gets when
// the engine opens do not list a type that never ran.
func TestStatsPerTypeListsTypesThatRan(t *testing.T) {
	e := newBank(t, G(Kind2PL, []string{"transfer", "deposit", "audit"}), 2)
	defer e.Close()
	if got := e.Stats().Snapshot().PerType; len(got) != 0 {
		t.Fatalf("PerType before any transaction: %v, want empty", got)
	}
	if err := e.RunTxn("transfer", 0, func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin("deposit", 0)
	if err != nil {
		t.Fatal(err)
	}
	tx.Rollback(nil)

	per := e.Stats().Snapshot().PerType
	got := map[string][2]uint64{}
	for typ, ts := range per {
		got[typ] = [2]uint64{ts.Commits, ts.Aborts}
	}
	want := map[string][2]uint64{"transfer": {1, 0}, "deposit": {0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PerType (commits, aborts) = %v, want %v", got, want)
	}
}

// TestTreeRefusesTypeWithoutSpec: RP's static analysis, SSI's optimized mode
// and the per-type counters all read a placed type's Spec, so New and
// Reconfigure (both protocols) refuse a tree that places a type without one,
// naming it, and a refused Reconfigure leaves the running tree in place.
func TestTreeRefusesTypeWithoutSpec(t *testing.T) {
	specless := G(KindSSI, nil, G(KindNone, []string{"audit"}),
		G(Kind2PL, nil, G(KindRP, []string{"transfer", "deposit"}), G(Kind2PL, []string{"nospec"})))
	if e, err := New(Options{Shards: 1}, bankSpecs(), specless); err == nil || !strings.Contains(err.Error(), `"nospec"`) {
		if e != nil {
			e.Close()
		}
		t.Fatalf("New = %v, want an error naming the type without a Spec", err)
	}

	cfg := G(KindSSI, nil, G(KindNone, []string{"audit"}),
		G(Kind2PL, nil, G(KindRP, []string{"transfer", "deposit"})))
	e := newBank(t, cfg, 2)
	defer e.Close()
	for _, p := range []Protocol{OnlineUpdate, PartialRestart} {
		if err := e.Reconfigure(specless, p); err == nil || !strings.Contains(err.Error(), `"nospec"`) {
			t.Fatalf("Reconfigure(%v) = %v, want an error naming the type without a Spec", p, err)
		}
		if !e.Config().Equal(cfg) {
			t.Fatalf("after a refused Reconfigure(%v) the tree is %s, want %s", p, e.Config(), cfg)
		}
	}
	if err := e.RunTxn("transfer", 0, func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
