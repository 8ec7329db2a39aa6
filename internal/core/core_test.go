package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKeyString(t *testing.T) {
	if got := K("t", "r").String(); got != "t/r" {
		t.Fatalf("got %q", got)
	}
	if got := KeyOf("district", 3, 7); got != (Key{Table: "district", Row: "3.7"}) {
		t.Fatalf("got %+v", got)
	}
	if got := KeyOf("warehouse", 5); got.Row != "5" {
		t.Fatalf("got %q", got.Row)
	}
}

func TestTxnLifecycle(t *testing.T) {
	tx := NewTxn(1, "a", 0, 10)
	if tx.State() != Active {
		t.Fatal("new txn not active")
	}
	if !tx.MarkCommitted(42) {
		t.Fatal("commit failed")
	}
	if tx.State() != Committed || tx.CommitTS() != 42 {
		t.Fatalf("state=%v ts=%d", tx.State(), tx.CommitTS())
	}
	if tx.MarkCommitted(43) || tx.MarkAborted() {
		t.Fatal("double finish allowed")
	}
	select {
	case <-tx.Done():
	default:
		t.Fatal("done channel not closed")
	}
}

func TestTxnAbortOnce(t *testing.T) {
	tx := NewTxn(1, "a", 0, 10)
	if !tx.MarkAborted() {
		t.Fatal("abort failed")
	}
	if tx.MarkAborted() || tx.MarkCommitted(1) {
		t.Fatal("double finish allowed")
	}
	if tx.State() != Aborted {
		t.Fatal("not aborted")
	}
}

func TestAddDepSkipsFinished(t *testing.T) {
	a := NewTxn(1, "a", 0, 1)
	b := NewTxn(2, "b", 0, 2)
	b.MarkCommitted(5)
	if err := a.AddDep(b, true); err != nil {
		t.Fatal(err)
	}
	if len(a.Deps()) != 0 {
		t.Fatal("committed dep recorded")
	}
	c := NewTxn(3, "c", 0, 3)
	c.MarkAborted()
	if err := a.AddDep(c, false); err != nil {
		t.Fatal(err)
	}
	if err := a.AddDep(c, true); !errors.Is(err, ErrCascade) {
		t.Fatalf("want cascade, got %v", err)
	}
}

// TestAddDepUpgradesToRead: the set holds one element per transaction, in
// the order first recorded; a read edge upgrades an ordering edge in place
// and an ordering edge never downgrades a read edge.
func TestAddDepUpgradesToRead(t *testing.T) {
	a := NewTxn(1, "a", 0, 1)
	b := NewTxn(2, "b", 0, 2)
	c := NewTxn(3, "c", 0, 3)
	a.AddDep(b, false)
	a.AddDep(c, false)
	a.AddDep(b, true)
	a.AddDep(c, false)
	a.AddDep(b, false)
	deps := a.Deps()
	if len(deps) != 2 || deps[0] != (Dep{T: b, Read: true}) || deps[1] != (Dep{T: c}) {
		t.Fatalf("deps=%+v", deps)
	}
}

func TestWaitDepsCascade(t *testing.T) {
	a := NewTxn(1, "a", 0, 1)
	b := NewTxn(2, "b", 0, 2)
	a.AddDep(b, true)
	go func() {
		time.Sleep(10 * time.Millisecond)
		b.MarkAborted()
	}()
	if err := (&Env{LockTimeout: time.Second}).WaitDeps(a); !errors.Is(err, ErrCascade) {
		t.Fatalf("want cascade, got %v", err)
	}
}

func TestWaitDepsTimeout(t *testing.T) {
	a := NewTxn(1, "a", 0, 1)
	b := NewTxn(2, "b", 0, 2)
	a.AddDep(b, false)
	if err := (&Env{LockTimeout: 20 * time.Millisecond}).WaitDeps(a); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
}

func TestWaitDepsOrderDepAbortIgnored(t *testing.T) {
	a := NewTxn(1, "a", 0, 1)
	b := NewTxn(2, "b", 0, 2)
	a.AddDep(b, false)
	b.MarkAborted()
	if err := (&Env{LockTimeout: time.Second}).WaitDeps(a); err != nil {
		t.Fatalf("order dep abort should be ignored: %v", err)
	}
}

func committedVersion(id uint64, ts uint64, val byte) *Version {
	w := NewTxn(id, "w", 0, 0)
	w.MarkCommitted(ts)
	return &Version{Writer: w, Value: []byte{val}}
}

func TestChainLatestCommitted(t *testing.T) {
	c := NewChain(K("t", "x"))
	c.Lock()
	defer c.Unlock()
	if c.LatestCommitted() != nil {
		t.Fatal("empty chain")
	}
	c.Install(committedVersion(1, 5, 'a'))
	c.Install(committedVersion(2, 9, 'b'))
	// Install order != commit order:
	c.Install(committedVersion(3, 7, 'c'))
	pending := &Version{Writer: NewTxn(4, "w", 0, 0), Value: []byte{'p'}}
	c.Install(pending)
	if got := c.LatestCommitted(); got.Value[0] != 'b' {
		t.Fatalf("latest = %c", got.Value[0])
	}
	if got := c.LatestCommittedBefore(7); got.Value[0] != 'c' {
		t.Fatalf("snapshot(7) = %c", got.Value[0])
	}
	if got := c.LatestCommittedBefore(4); got != nil {
		t.Fatalf("snapshot(4) = %v", got)
	}
}

func TestChainRemoveAndVersionBy(t *testing.T) {
	c := NewChain(K("t", "x"))
	c.Lock()
	defer c.Unlock()
	w := NewTxn(1, "w", 0, 0)
	v := &Version{Writer: w, Value: []byte{1}}
	c.Install(v)
	if c.VersionBy(w) != v {
		t.Fatal("VersionBy missed")
	}
	c.Remove(v)
	if c.VersionBy(w) != nil || len(c.Versions()) != 0 {
		t.Fatal("remove failed")
	}
}

func TestChainPromise(t *testing.T) {
	c := NewChain(K("t", "x"))
	w := NewTxn(1, "w", 0, 0)
	c.Lock()
	v := c.InstallPromise(w, 5)
	c.Unlock()
	if !v.Promise || v.TS != 5 {
		t.Fatal("bad promise")
	}
	select {
	case <-v.Ready():
		t.Fatal("ready too early")
	default:
	}
	c.Lock()
	v.Fulfill([]byte{9})
	c.Unlock()
	select {
	case <-v.Ready():
	default:
		t.Fatal("ready not closed")
	}
	if v.Promise || v.Value[0] != 9 {
		t.Fatal("fulfill failed")
	}
}

func TestChainRemoveUnfulfilledPromiseWakesWaiters(t *testing.T) {
	c := NewChain(K("t", "x"))
	w := NewTxn(1, "w", 0, 0)
	c.Lock()
	v := c.InstallPromise(w, 5)
	c.Unlock()
	c.Lock()
	c.Remove(v)
	c.Unlock()
	select {
	case <-v.Ready():
	case <-time.After(time.Second):
		t.Fatal("waiters not woken on promise removal")
	}
}

func TestChainGC(t *testing.T) {
	c := NewChain(K("t", "x"))
	c.Lock()
	for i := uint64(1); i <= 10; i++ {
		c.Install(committedVersion(i, i*10, byte(i)))
	}
	c.Unlock()
	// Watermark 55: newest committed <= 55 has ts 50; everything older
	// is reclaimable.
	pruned, _ := c.GCStep(55)
	if pruned != 4 {
		t.Fatalf("pruned %d, want 4", pruned)
	}
	c.Lock()
	defer c.Unlock()
	if got := c.LatestCommittedBefore(55); got.CommitTS() != 50 {
		t.Fatalf("survivor %d", got.CommitTS())
	}
	if got := c.LatestCommitted(); got.CommitTS() != 100 {
		t.Fatalf("latest %d", got.CommitTS())
	}
}

// Property: GC never removes the version a snapshot at or above the
// watermark would read.
func TestChainGCPreservesSnapshotsProperty(t *testing.T) {
	f := func(tss []uint16, watermark16, snap16 uint16) bool {
		if len(tss) == 0 {
			return true
		}
		c := NewChain(K("t", "x"))
		c.Lock()
		for i, ts := range tss {
			if ts == 0 {
				ts = 1
			}
			c.Install(committedVersion(uint64(i+1), uint64(ts), byte(i)))
		}
		watermark := uint64(watermark16)
		snap := uint64(snap16)
		if snap < watermark {
			snap = watermark // snapshots are at or above the watermark
		}
		before := c.LatestCommittedBefore(snap)
		c.Unlock()
		c.GCStep(watermark)
		c.Lock()
		after := c.LatestCommittedBefore(snap)
		c.Unlock()
		if before == nil {
			return after == nil
		}
		return after != nil && after.CommitTS() == before.CommitTS()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func buildTestTree() (*Node, *Node, *Node, *Node) {
	root := &Node{ID: 0, Depth: 0}
	left := &Node{ID: 1, Depth: 1, Parent: root, Types: []string{"a", "b"}}
	right := &Node{ID: 2, Depth: 1, Parent: root, Types: []string{"c"}}
	root.Children = []*Node{left, right}
	root.FinalizeRouting()
	return root, left, right, nil
}

func TestNodeRoutingAndPaths(t *testing.T) {
	root, left, right, _ := buildTestTree()
	ta := NewTxn(1, "a", 0, 1)
	tc := NewTxn(2, "c", 0, 2)
	ta.Path = root.AppendPath(ta, nil)
	tc.Path = root.AppendPath(tc, nil)
	if len(ta.Path) != 2 || ta.Path[1] != left {
		t.Fatalf("a path %v", ta.Path)
	}
	if tc.Path[1] != right {
		t.Fatalf("c path %v", tc.Path)
	}
	if !root.InSubtree(ta) || !left.InSubtree(ta) || right.InSubtree(ta) {
		t.Fatal("InSubtree wrong")
	}
	tb := NewTxn(3, "b", 0, 3)
	tb.Path = root.AppendPath(tb, nil)
	if !root.SameChild(ta, tb) {
		t.Fatal("a,b should share the left child")
	}
	if root.SameChild(ta, tc) {
		t.Fatal("a,c must not share a child")
	}
	if left.SameChild(ta, tb) {
		t.Fatal("leaf SameChild must be false")
	}
}

func TestNodeByInstanceRouting(t *testing.T) {
	root := &Node{ID: 0, Depth: 0, ByInstance: true}
	for i := 0; i < 4; i++ {
		root.Children = append(root.Children,
			&Node{ID: i + 1, Depth: 1, Parent: root, Types: []string{"t"}})
	}
	root.FinalizeRouting()
	for part := uint64(0); part < 8; part++ {
		tx := NewTxn(part, "t", part, 1)
		tx.Path = root.AppendPath(tx, nil)
		want := root.Children[part%4]
		if tx.Path[1] != want {
			t.Fatalf("part %d routed to %d", part, tx.Path[1].ID)
		}
	}
}

func TestNodeString(t *testing.T) {
	root, _, _, _ := buildTestTree()
	root.CC = fakeNamed("SSI")
	root.Children[0].CC = fakeNamed("RP")
	root.Children[1].CC = fakeNamed("2PL")
	want := "SSI[ RP{a,b} 2PL{c} ]"
	if got := root.String(); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

type fakeNamed string

func (f fakeNamed) Name() string                                { return string(f) }
func (f fakeNamed) Begin(*Txn) error                            { return nil }
func (f fakeNamed) PreRead(*Txn, Key) error                     { return nil }
func (f fakeNamed) PreWrite(*Txn, Key) error                    { return nil }
func (f fakeNamed) Validate(*Txn) error                         { return nil }
func (f fakeNamed) Commit(*Txn)                                 {}
func (f fakeNamed) Abort(*Txn)                                  {}
func (f fakeNamed) PostWrite(*Txn, Key, *Chain, *Version) error { return nil }
func (f fakeNamed) AmendRead(t *Txn, k Key, c *Chain, p *Version) (*Version, error) {
	return p, nil
}

func TestIsRetryable(t *testing.T) {
	for _, err := range []error{ErrConflict, ErrTimeout, ErrCascade, ErrPivot} {
		if !IsRetryable(err) {
			t.Fatalf("%v should be retryable", err)
		}
	}
	if IsRetryable(ErrUserAbort) || IsRetryable(fmt.Errorf("other")) {
		t.Fatal("non-retryable misclassified")
	}
}

func TestRecordReaderPrunes(t *testing.T) {
	wm1000 := func() uint64 { return 1000 }
	c := NewChain(K("t", "x"))
	c.Lock()
	defer c.Unlock()
	for i := 0; i < 100; i++ {
		r := NewTxn(uint64(i), "r", 0, 1)
		switch i % 3 {
		case 0:
			r.MarkCommitted(uint64(i + 1)) // below watermark: prunable
		case 1:
			r.MarkAborted() // always prunable
		}
		c.RecordReader(ReadRec{T: r, SnapshotTS: 1}, wm1000)
	}
	if len(c.Readers()) >= 100 {
		t.Fatalf("readers not pruned: %d", len(c.Readers()))
	}
	// Active readers and committed readers above the watermark survive.
	c2 := NewChain(K("t", "y"))
	//lint:allow lockorder -- single-goroutine test setup holding two chains; no concurrent acquirer exists to deadlock with
	c2.Lock()
	defer c2.Unlock()
	for i := 0; i < 100; i++ {
		r := NewTxn(uint64(i), "r", 0, 1)
		if i%2 == 0 {
			r.MarkCommitted(uint64(2000 + i)) // above watermark: kept
		}
		c2.RecordReader(ReadRec{T: r, SnapshotTS: 1}, wm1000)
	}
	if len(c2.Readers()) != 100 {
		t.Fatalf("live readers were pruned: %d", len(c2.Readers()))
	}
}

// heldOracle draws a timestamp and then holds it back until release is
// closed, signalling entered: a committer is caught between its draw and its
// publication with no hook in the code under test.
type heldOracle struct {
	last             uint64
	entered, release chan struct{}
}

func (o *heldOracle) Next() uint64 {
	o.last++
	ts := o.last
	close(o.entered)
	<-o.release
	return ts
}

func (o *heldOracle) Last() uint64 { return o.last }

// TestCommitTSVisibleWhileDrawing: from the moment MarkCommittedNext draws
// its timestamp until it publishes it, the still-pending writer's CommitTS
// is non-zero and at or below any later snapshot, so a reader that began
// after the draw waits for the writer instead of skipping its writes.
func TestCommitTSVisibleWhileDrawing(t *testing.T) {
	w := NewTxn(1, "w", 0, 1)
	o := &heldOracle{last: 5, entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan uint64)
	go func() {
		ts := w.MarkCommittedNext(o)
		done <- ts
	}()
	<-o.entered
	snapshot := o.last + 1 // a reader that began after the draw
	if cts := w.CommitTS(); w.State() != Active || cts == 0 || cts > snapshot {
		t.Errorf("while drawing: state %v, CommitTS %d; want a pending writer with 0 < CommitTS <= %d", w.State(), cts, snapshot)
	}
	close(o.release)
	if ts := <-done; ts != 6 || w.CommitTS() != 6 || w.State() != Committed {
		t.Fatalf("committed at %d, CommitTS %d, state %v; want 6, 6, committed", ts, w.CommitTS(), w.State())
	}
}

// TestMarkCommittedNextPanicsOnFinished: only a transaction's owner ends it,
// so a commit point reached by a transaction that is no longer Active is a
// bug, and it names the transaction instead of committing nothing quietly.
func TestMarkCommittedNextPanicsOnFinished(t *testing.T) {
	w := NewTxn(7, "w", 0, 1)
	w.MarkAborted()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "transaction 7") || !strings.Contains(msg, "aborted") {
			t.Fatalf("recovered %v, want a panic naming aborted transaction 7", r)
		}
	}()
	o := &heldOracle{entered: make(chan struct{}), release: make(chan struct{})}
	close(o.release)
	w.MarkCommittedNext(o)
}
