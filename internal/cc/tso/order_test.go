package tso

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oracle"
)

// These tests drive AmendRead/PostWrite directly on a hand-built chain, so
// the states the engine passes through only for an instant (an aborted
// writer whose versions are not removed yet) are held still.

// begin starts a transaction with begin timestamp ts on path under o.
func begin(t *testing.T, o *TSO, id, ts uint64, path ...*core.Node) *core.Txn {
	t.Helper()
	tx := core.NewTxn(id, "w", 0, ts)
	tx.Path = path
	tx.Slots = make([]any, len(path))
	if err := o.Begin(tx); err != nil {
		t.Fatal(err)
	}
	return tx
}

// write installs tx's version of the chain's key and runs PostWrite on it,
// as engine.Tx.Write does.
func write(o *TSO, tx *core.Txn, ch *core.Chain, val string) (*core.Version, error) {
	v := &core.Version{Writer: tx, Value: []byte(val)}
	ch.Install(v)
	tx.AddWrite(ch, v)
	return v, o.PostWrite(tx, ch.Key, ch, v)
}

func leaf() (*TSO, *core.Node, *core.Chain) {
	node := &core.Node{}
	return New(&core.Env{}, node), node, core.NewChain(core.K("t", "x"))
}

func TestAmendReadSkipsAbortedWriterStillInChain(t *testing.T) {
	o, node, ch := leaf()
	w1 := begin(t, o, 1, 10, node)
	w2 := begin(t, o, 2, 20, node)
	v1, err := write(o, w1, ch, "one")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := write(o, w2, ch, "two"); err != nil {
		t.Fatal(err)
	}
	w1.MarkCommitted(11)
	// abortWith's window: the state is Aborted, the version not removed.
	w2.MarkAborted()

	r := begin(t, o, 3, 30, node)
	got, err := o.AmendRead(r, ch.Key, ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != v1 {
		t.Fatalf("AmendRead chose %q by writer %d (%s), want the committed \"one\"",
			got.Value, got.Writer.ID, got.Writer.State())
	}
}

func TestPostWriteBelowNewerVersionIsTooLate(t *testing.T) {
	o, node, ch := leaf()
	early := begin(t, o, 1, 10, node)
	late := begin(t, o, 2, 20, node)
	if _, err := write(o, late, ch, "late"); err != nil {
		t.Fatal(err)
	}
	late.MarkCommitted(21)
	// early would install below a committed version and commit after it:
	// timestamp order and commit order of the key would part ways.
	if _, err := write(o, early, ch, "early"); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("write below a newer version: err = %v, want ErrConflict", err)
	}
}

func TestPostWriteIgnoresAbortedNewerVersion(t *testing.T) {
	o, node, ch := leaf()
	early := begin(t, o, 1, 10, node)
	late := begin(t, o, 2, 20, node)
	if _, err := write(o, late, ch, "late"); err != nil {
		t.Fatal(err)
	}
	late.MarkAborted()
	if _, err := write(o, early, ch, "early"); err != nil {
		t.Fatalf("an aborted newer version blocked the write: %v", err)
	}
}

func TestAmendReadSameTimestampTieTakesLaterInstalled(t *testing.T) {
	root := &core.Node{}
	left := &core.Node{Depth: 1, Parent: root}
	right := &core.Node{Depth: 1, Parent: root}
	root.Children = []*core.Node{left, right}
	o := New(&core.Env{Oracle: oracle.New(), BatchAge: time.Hour}, root)
	ch := core.NewChain(core.K("t", "x"))

	// Two writers of one batch (same child, same timestamp).
	w1 := begin(t, o, 1, 0, root, left)
	w2 := begin(t, o, 2, 0, root, left)
	if !o.sameGroup(w1, w2) {
		t.Fatal("the two writers did not share a batch")
	}
	if _, err := write(o, w1, ch, "first"); err != nil {
		t.Fatal(err)
	}
	v2, err := write(o, w2, ch, "second")
	if err != nil {
		t.Fatal(err)
	}
	w1.MarkCommitted(100)
	w2.MarkCommitted(101)

	// A reader of a later batch of the other child: both versions precede
	// it at one timestamp, and the later-installed one is the newer.
	r := begin(t, o, 3, 0, root, right)
	got, err := o.AmendRead(r, ch.Key, ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != v2 {
		t.Fatalf("AmendRead chose %q, want the later-installed \"second\"", got.Value)
	}
}

// TestAmendReadBelowCrossSubtreeCommitIsTooLate: nested under another
// mechanism, a reader whose timestamp is below the commit of a writer from
// outside the subtree cannot be served: the ancestor has ordered that writer
// first and will hand the reader its value.
func TestAmendReadBelowCrossSubtreeCommitIsTooLate(t *testing.T) {
	root := &core.Node{}
	leafNode := &core.Node{Depth: 1, Parent: root}
	sibling := &core.Node{Depth: 1, Parent: root}
	root.Children = []*core.Node{leafNode, sibling}
	o := New(&core.Env{}, leafNode)
	ch := core.NewChain(core.K("t", "x"))

	outsider := core.NewTxn(1, "b", 0, 5)
	outsider.Path = []*core.Node{root, sibling}
	v := &core.Version{Writer: outsider, Value: []byte("theirs")}
	ch.Install(v)
	outsider.MarkCommitted(20)

	early := begin(t, o, 2, 10, root, leafNode)
	if _, err := o.AmendRead(early, ch.Key, ch, nil); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("reader at 10 below a cross-subtree commit at 20: err = %v, want ErrConflict", err)
	}
	late := begin(t, o, 3, 30, root, leafNode)
	if got, err := o.AmendRead(late, ch.Key, ch, nil); err != nil || got != v {
		t.Fatalf("reader at 30 = (%v, %v), want the committed cross-subtree version", got, err)
	}
}

// TestPostWriteBelowCrossSubtreeReaderCommitIsTooLate: a reader from outside
// the subtree has no TSO timestamp to leave on the version it read; the
// lock-based ancestor that serves it leaves a ReadRec instead, and orders
// it at its commit. A writer below that commit would slot in under the read.
func TestPostWriteBelowCrossSubtreeReaderCommitIsTooLate(t *testing.T) {
	root := &core.Node{}
	leafNode := &core.Node{Depth: 1, Parent: root}
	sibling := &core.Node{Depth: 1, Parent: root}
	root.Children = []*core.Node{leafNode, sibling}
	o := New(&core.Env{}, leafNode)
	ch := core.NewChain(core.K("t", "x"))

	outsider := core.NewTxn(1, "b", 0, 5)
	outsider.Path = []*core.Node{root, sibling}
	ch.RecordReader(core.ReadRec{T: outsider}, nil)
	outsider.MarkCommitted(20)

	early := begin(t, o, 2, 10, root, leafNode)
	if _, err := write(o, early, ch, "early"); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("writer at 10 under a cross-subtree read committed at 20: err = %v, want ErrConflict", err)
	}
	late := begin(t, o, 3, 30, root, leafNode)
	if _, err := write(o, late, ch, "late"); err != nil {
		t.Fatalf("writer at 30: %v", err)
	}
}
