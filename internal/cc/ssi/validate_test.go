package ssi

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
)

// These tests drive one leaf SSI node directly, so that a transaction can be
// held between its Validate and its commit point — the window in which
// Tx.Commit stages the log and other transactions validate and commit.

type rig struct {
	t      *testing.T
	s      *SSI
	node   *core.Node
	oracle core.Oracle
	nextID uint64
}

func newRig(t *testing.T) *rig {
	o := oracle.New()
	node := &core.Node{}
	return &rig{t: t, s: New(&core.Env{Oracle: o}, node), node: node, oracle: o}
}

func (r *rig) begin() *core.Txn {
	r.nextID++
	tx := core.NewTxn(r.nextID, "w", 0, r.oracle.Next())
	tx.Path = []*core.Node{r.node}
	tx.Slots = make([]any, 1)
	if err := r.s.Begin(tx); err != nil {
		r.t.Fatal(err)
	}
	return tx
}

// load returns a chain holding one committed version.
func (r *rig) load(key string) *core.Chain {
	ch := core.NewChain(core.K("t", key))
	w := core.NewTxn(0, "load", 0, r.oracle.Next())
	ch.Install(&core.Version{Writer: w, Value: []byte("0")})
	w.MarkCommittedNext(r.oracle)
	return ch
}

func (r *rig) read(tx *core.Txn, ch *core.Chain) error {
	ch.Lock()
	defer ch.Unlock()
	_, err := r.s.AmendRead(tx, ch.Key, ch, nil)
	return err
}

func (r *rig) write(tx *core.Txn, ch *core.Chain) error {
	ch.Lock()
	defer ch.Unlock()
	v := &core.Version{Writer: tx, Value: []byte("1")}
	ch.Install(v)
	tx.AddWrite(ch, v)
	return r.s.PostWrite(tx, ch.Key, ch, v)
}

func (r *rig) commit(tx *core.Txn) {
	tx.MarkCommittedNext(r.oracle)
	r.s.Commit(tx)
}

func (r *rig) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

// TestConcurrentValidationWriteSkew: t1 and t2 read x and y and each writes
// what the other read. Both validate before either commits. Neither rescan
// finds the other committed, so both used to pass and both committed.
func TestConcurrentValidationWriteSkew(t *testing.T) {
	r := newRig(t)
	x, y := r.load("x"), r.load("y")
	t1, t2 := r.begin(), r.begin()
	r.must(r.read(t1, x))
	r.must(r.read(t2, y))
	r.must(r.write(t1, y))
	r.must(r.write(t2, x))
	err1, err2 := r.s.Validate(t1), r.s.Validate(t2)
	if err1 == nil && err2 == nil {
		t.Fatal("both halves of a write skew passed validation")
	}
}

// TestWriteAfterReaderValidated: t2 validates with no out-edge yet. t3 then
// writes what t2 read and commits first, and t1, reading t3's write, reads
// what t2 wrote at a snapshot that misses it: t1 -rw-> t2 -rw-> t3 -wr-> t1.
// t2, the pivot, is past validation, so t3 or t1 has to abort.
func TestWriteAfterReaderValidated(t *testing.T) {
	r := newRig(t)
	x, y, z := r.load("x"), r.load("y"), r.load("z")
	t2 := r.begin()
	r.must(r.read(t2, y))
	r.must(r.write(t2, x))
	r.must(r.s.Validate(t2))

	t3 := r.begin()
	err := r.write(t3, y)
	if err == nil {
		err = r.write(t3, z)
	}
	if err == nil {
		err = r.s.Validate(t3)
	}
	if err != nil {
		return // t3 aborted: no cycle
	}
	r.commit(t3)

	t1 := r.begin()
	err = r.read(t1, z)
	if err == nil {
		err = r.read(t1, x)
	}
	if err == nil {
		err = r.s.Validate(t1)
	}
	if err == nil {
		t.Fatal("t1 -rw-> t2 -rw-> t3 -wr-> t1 passed: t2 and t1 would both commit")
	}
}
