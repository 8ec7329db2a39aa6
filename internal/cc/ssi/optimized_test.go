package ssi

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
)

// heldOracle draws a timestamp from o and then holds it back, once, until
// release is closed, signalling entered: a committer is caught between its
// draw and its publication with no hook in the code under test.
type heldOracle struct {
	*oracle.Oracle
	hold             bool
	entered, release chan struct{}
}

func (o *heldOracle) Next() uint64 {
	ts := o.Oracle.Next()
	if o.hold {
		o.hold = false
		close(o.entered)
		<-o.release
	}
	return ts
}

// TestOptimizedReaderWaitsForCommittingWriter: under optimized SSI (a
// read-only child and one updating child), a read-only transaction that
// began after a writer drew its commit timestamp must not skip the writer's
// still-pending version: it waits, and after the commit reads the write.
// Skipping it read half of a transaction whose other half the reader could
// see on a key read after the publication.
func TestOptimizedReaderWaitsForCommittingWriter(t *testing.T) {
	o := &heldOracle{Oracle: oracle.New(), entered: make(chan struct{}), release: make(chan struct{})}
	root := &core.Node{}
	ro := &core.Node{Depth: 1, Parent: root, Types: []string{"audit"}}
	upd := &core.Node{Depth: 1, Parent: root, Types: []string{"transfer"}}
	root.Children = []*core.Node{ro, upd}
	root.FinalizeRouting()
	env := &core.Env{Oracle: o, Specs: map[string]*core.Spec{
		"audit":    {Name: "audit", ReadOnly: true},
		"transfer": {Name: "transfer"},
	}}
	s := New(env, root)
	if !s.optimized {
		t.Fatal("a read-only child and one updating child did not engage optimized mode")
	}
	begin := func(id uint64, typ string) *core.Txn {
		tx := core.NewTxn(id, typ, 0, o.Next())
		tx.Path = root.AppendPath(tx, nil)
		tx.Slots = make([]any, len(tx.Path))
		if err := s.Begin(tx); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	ch := core.NewChain(core.K("t", "x"))
	loader := core.NewTxn(0, "load", 0, o.Next())
	old := &core.Version{Writer: loader, Value: []byte("0")}
	ch.Install(old)
	loader.MarkCommittedNext(o)

	w := begin(1, "transfer")
	v := &core.Version{Writer: w, Value: []byte("1")}
	ch.Install(v)
	o.hold = true
	committed := make(chan struct{})
	go func() {
		w.MarkCommittedNext(o)
		close(committed)
	}()
	<-o.entered
	r := begin(2, "audit") // began after the writer's draw
	read := func() (*core.Version, error) {
		ch.Lock()
		defer ch.Unlock()
		return s.AmendRead(r, ch.Key, ch, nil)
	}
	got, err := read()
	var wait *core.WaitFor
	if !errors.As(err, &wait) || wait.V != v {
		t.Errorf("read during the writer's draw returned %v, %v; want a wait for the writer's version", got, err)
	}
	close(o.release)
	<-committed
	if got, err := read(); err != nil || got != v {
		t.Fatalf("read after the commit returned %v, %v; want the writer's version", got, err)
	}
}
