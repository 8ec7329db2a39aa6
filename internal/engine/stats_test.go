package engine

import (
	"reflect"
	"testing"
)

// TestStatsPerTypeListsTypesThatRan: a type appears in Snapshot.PerType once
// it has committed or aborted, whether or not a Spec registered it. The
// counters every registered type gets when the engine opens do not list a
// type that never ran.
func TestStatsPerTypeListsTypesThatRan(t *testing.T) {
	e := newBank(t, G(Kind2PL, []string{"transfer", "deposit", "audit", "unregistered"}), 2)
	defer e.Close()
	if got := e.Stats().Snapshot().PerType; len(got) != 0 {
		t.Fatalf("PerType before any transaction: %v, want empty", got)
	}
	if err := e.RunTxn("transfer", 0, func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin("unregistered", 0)
	if err != nil {
		t.Fatal(err)
	}
	tx.Rollback(nil)

	per := e.Stats().Snapshot().PerType
	got := map[string][2]uint64{}
	for typ, ts := range per {
		got[typ] = [2]uint64{ts.Commits, ts.Aborts}
	}
	want := map[string][2]uint64{"transfer": {1, 0}, "unregistered": {0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PerType (commits, aborts) = %v, want %v", got, want)
	}
}
