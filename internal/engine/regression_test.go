package engine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// Deterministic regressions for the two race-timing CC bugs fixed in this
// tree. Both are reproduced by client-driven interleaving on a single
// goroutine — no sleeps, no scheduler dependence — so the fixes cannot
// silently regress even in builds without the race detector.

// TestRPNonLeafKeepsSameChildProposal pins bug (1): in the hot-4layer
// RP-over-(RP|2PL) nesting, the non-leaf RP dropped a same-child
// step-committed pending proposal (its first-clause guard required
// !StepCommitted) and its candidate scan skipped all same-child versions,
// substituting stale committed history. A payment-shaped transaction
// pipelining behind another thus read the warehouse's OLD balance while
// later reading the district's NEW one — the w_ytd/d_ytd drift.
//
// The interleaving: p1 writes table w, then table d (entering d's step
// step-commits and exposes the w write); p2 then reads w. The leaf RP
// correctly proposes p1's exposed pending write; the non-leaf RP must keep
// that proposal, not replace it with the committed initial value.
func TestRPNonLeafKeepsSameChildProposal(t *testing.T) {
	specs := []*core.Spec{
		{Name: "p", Tables: []string{"w", "d"}, WriteTables: []string{"w", "d"}},
		{Name: "h", Tables: []string{"w", "d"}, WriteTables: []string{"w", "d"}},
	}
	cfg := G(KindRP, nil, G(KindRP, []string{"p"}), G(Kind2PL, []string{"h"}))
	e, err := New(Options{Shards: 2, LockTimeout: 2 * time.Second, GCInterval: -1}, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	kw := core.KeyOf("w", 0)
	kd := core.KeyOf("d", 0)
	e.Load(kw, []byte("init-w"))
	e.Load(kd, []byte("init-d"))

	p1, err := e.Begin("p", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Write(kw, []byte("p1-w")); err != nil {
		t.Fatal(err)
	}
	// Entering table d's pipeline step exposes (step-commits) the w write
	// and releases its intra-step lock.
	if err := p1.Write(kd, []byte("p1-d")); err != nil {
		t.Fatal(err)
	}

	p2, err := e.Begin("p", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Read(kw)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "p1-w" {
		t.Fatalf("p2 read w = %q, want the exposed pipeline-predecessor write %q (stale read: bug (1))",
			got, "p1-w")
	}

	if err := p1.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, err := p2.Read(kd); err != nil || string(got) != "p1-d" {
		t.Fatalf("p2 read d = %q, %v; want %q", got, err, "p1-d")
	}
	if err := p2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTSONonLeafSameBatchRTS pins bug (2): TSO as a non-leaf skipped
// same-group versions when applying the read-timestamp rule, so a
// same-batch writer could supersede a version a larger-timestamped
// cross-batch reader had already read — a committed lost update (the
// tso-nonleaf DSG cycles under -race).
//
// The interleaving: a1 and a2 share a batch (timestamp T); a1 writes x and
// commits; b1, in a later batch, reads a1's version (recording its read
// timestamp on it); a2 then writes x at the same batch timestamp T,
// superseding the version b1 read. The write must be refused.
func TestTSONonLeafSameBatchRTS(t *testing.T) {
	specs := []*core.Spec{
		{Name: "a", Tables: []string{"t"}, WriteTables: []string{"t"}},
		{Name: "b", Tables: []string{"t"}, WriteTables: []string{"t"}},
	}
	cfg := G(KindTSO, nil, G(Kind2PL, []string{"a"}), G(Kind2PL, []string{"b"}))
	e, err := New(Options{
		Shards:      2,
		LockTimeout: 2 * time.Second,
		GCInterval:  -1,
		// Keep the a-batch open across the whole interleaving so a1 and
		// a2 genuinely share one timestamp.
		BatchAge: time.Hour,
	}, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	kx := core.KeyOf("t", 0)
	e.Load(kx, []byte("init"))

	a1, err := e.Begin("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Begin("a", 0) // joins a1's batch
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.Write(kx, []byte("a1")); err != nil {
		t.Fatal(err)
	}
	if err := a1.Commit(); err != nil {
		t.Fatal(err)
	}

	b1, err := e.Begin("b", 0) // later batch, larger timestamp
	if err != nil {
		t.Fatal(err)
	}
	got, err := b1.Read(kx)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "a1" {
		t.Fatalf("b1 read %q, want %q", got, "a1")
	}

	// a2 writes at the shared batch timestamp, behind b1's read. Admitting
	// this write is the lost update: b1 (serialized after the whole
	// a-batch) would have missed it.
	if err := a2.Write(kx, []byte("a2")); err == nil {
		t.Fatalf("a2's write behind b1's read was admitted (lost update: bug (2))")
	}

	if err := b1.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := e.ReadCommitted(kx); string(v) != "a1" {
		t.Fatalf("final x = %q, want %q", v, "a1")
	}
}

// TestSSIDrainedBatchIsNotRejoined: a non-leaf SSI batch whose members have
// all finished is retired. a1's batch drains at its commit; b1, of the other
// child, then commits a write of y; a2 begins after that commit, so it must
// open a new batch and read b1's y. Joining a1's drained batch would hand it
// a1's snapshot, which misses a commit that precedes a2's begin.
func TestSSIDrainedBatchIsNotRejoined(t *testing.T) {
	specs := []*core.Spec{
		{Name: "a", Tables: []string{"t"}, WriteTables: []string{"t"}},
		{Name: "b", Tables: []string{"t"}, WriteTables: []string{"t"}},
	}
	cfg := G(KindSSI, nil, G(Kind2PL, []string{"a"}), G(Kind2PL, []string{"b"}))
	// BatchAge keeps a1's batch young enough to take a2 by age alone.
	e, err := New(Options{Shards: 2, LockTimeout: 2 * time.Second, GCInterval: -1, BatchAge: time.Hour}, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ky := core.KeyOf("t", 0)
	e.Load(ky, []byte("old"))

	a1, err := e.Begin("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.RunTxn("b", 0, func(tx *Tx) error { return tx.Write(ky, []byte("b1")) }); err != nil {
		t.Fatal(err)
	}
	a2, err := e.Begin("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a2.Read(ky)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "b1" {
		t.Fatalf("a2 read %q, want %q: it joined a drained batch whose snapshot misses b1", got, "b1")
	}
	if err := a2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestFinishReadOfAbortedWriterCascades: abortWith marks the writer Aborted
// before it removes the versions, so a CC may still propose one. "Not
// pending" is not "committed": the read must cascade, not return a value
// that never existed.
func TestFinishReadOfAbortedWriterCascades(t *testing.T) {
	writer := core.NewTxn(1, "w", 0, 1)
	writer.MarkAborted()
	reader := core.NewTxn(2, "w", 0, 2)
	v := &core.Version{Writer: writer, Value: []byte("never")}
	if val, err := finishRead(reader, v); !errors.Is(err, core.ErrCascade) {
		t.Fatalf("finishRead = (%q, %v), want ErrCascade", val, err)
	}
}

// TestTwoPLParentKeepsChildsCommittedChoice: under a 2PL parent, a
// multiversion child may order a reader BEFORE a same-child writer that has
// since committed (TSO: the reader's timestamp is smaller). The parent used
// to replace the child's proposal with the latest committed version of ANY
// writer, handing the reader that writer's value and inverting the child's
// order; same-child versions are the child's choice, committed or not.
func TestTwoPLParentKeepsChildsCommittedChoice(t *testing.T) {
	e, kx := tsoUnder2PL(t)

	early, err := e.Begin("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := e.Begin("a", 0) // same TSO group, larger timestamp
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Write(kx, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := late.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := early.Read(kx)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Fatalf("the earlier-timestamped reader saw %q, want %q (its TSO group orders it before the writer)", got, "old")
	}
	if err := early.Commit(); err != nil {
		t.Fatal(err)
	}
}

// tsoUnder2PL opens 2PL[ TSO{a} 2PL{b} ] with key t/0 loaded as "old".
func tsoUnder2PL(t *testing.T) (*Engine, core.Key) {
	t.Helper()
	specs := []*core.Spec{
		{Name: "a", Tables: []string{"t"}, WriteTables: []string{"t"}},
		{Name: "b", Tables: []string{"t"}, WriteTables: []string{"t"}},
	}
	cfg := G(Kind2PL, nil, G(KindTSO, []string{"a"}), G(Kind2PL, []string{"b"}))
	e, err := New(Options{Shards: 2, LockTimeout: 2 * time.Second, GCInterval: -1}, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	kx := core.KeyOf("t", 0)
	e.Load(kx, []byte("old"))
	return e, kx
}

// TestNestedTSOWriteUnderCrossChildReadIsTooLate: the 2PL parent orders a
// reader of another child at its commit. A TSO transaction that began before
// that commit may not write the key afterwards — its timestamp says it
// precedes transactions the reader may already follow — and must retry with a
// timestamp above the commit. The parent leaves the read record the TSO
// writer needs (core.ReadRecordNeeder).
func TestNestedTSOWriteUnderCrossChildReadIsTooLate(t *testing.T) {
	e, kx := tsoUnder2PL(t)
	writer, err := e.Begin("a", 0) // TSO timestamp taken here
	if err != nil {
		t.Fatal(err)
	}
	reader, err := e.Begin("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Read(kx); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	err = writer.Write(kx, []byte("late"))
	if err == nil {
		t.Fatal("a TSO write below a cross-child reader's commit was admitted")
	}
	if !core.IsRetryable(err) {
		t.Fatalf("too-late write not retryable: %v", err)
	}
	// The retry's timestamp is above the reader's commit.
	if err := e.RunTxn("a", 0, func(tx *Tx) error { return tx.Write(kx, []byte("retry")) }); err != nil {
		t.Fatal(err)
	}
}

// TestBeginRefusesUnplacedType: a transaction type that no node of the CC
// tree lists — unregistered, or registered but left out of the
// configuration — would run under the CCs its path happens to cross (here
// the SSI root alone, which lets two read-modify-writes of one key both
// commit) and lose updates. Begin refuses it with the non-retryable
// core.ErrUnknownType, naming the type, and RunTxn does not retry it.
func TestBeginRefusesUnplacedType(t *testing.T) {
	specs := []*core.Spec{
		{Name: "inc", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
		{Name: "orphan", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
	}
	e, err := New(Options{Shards: 2, LockTimeout: 2 * time.Second}, specs,
		G(KindSSI, nil, G(Kind2PL, []string{"inc"}), G(KindNone, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, typ := range []string{"orphan", "no-such-type"} {
		tx, err := e.Begin(typ, 0)
		if tx != nil || !errors.Is(err, core.ErrUnknownType) || !strings.Contains(err.Error(), typ) {
			t.Fatalf("Begin(%q) = %v, %v; want core.ErrUnknownType naming the type", typ, tx, err)
		}
		if core.IsRetryable(err) {
			t.Fatalf("Begin(%q): %v is retryable", typ, err)
		}
		runs := 0
		err = e.RunTxn(typ, 0, func(*Tx) error { runs++; return nil })
		if !errors.Is(err, core.ErrUnknownType) || runs != 0 {
			t.Fatalf("RunTxn(%q) = %v after %d runs of its body; want core.ErrUnknownType and none", typ, err, runs)
		}
	}
	// The placed type still runs, and no refused Begin left a transaction
	// registered that would hold the watermark back.
	if err := e.RunTxn("inc", 0, func(tx *Tx) error { return tx.Write(core.KeyOf("kv", 1), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	if n := e.ActiveTxns(); n != 0 {
		t.Fatalf("%d transactions still registered", n)
	}
}
