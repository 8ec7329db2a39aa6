package wal

import (
	"testing"
	"time"

	"repro/internal/core"
)

func open(t *testing.T, dir string, shards int, sync bool) *Manager {
	t.Helper()
	m, err := Open(Options{Dir: dir, Shards: shards, EpochInterval: 10 * time.Millisecond, SyncCommit: sync})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stageRaw pushes one hand-built record through the appender and waits for
// it, for tests that need a log no well-behaved committer would write.
func stageRaw(t *testing.T, m *Manager, kind byte, payload []byte) {
	t.Helper()
	tk := newTicket(1)
	m.app.ch <- appendReq{kind: kind, payload: payload, epoch: m.Epoch(), tk: tk}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func kv(table, row, val string) KV {
	return KV{Key: core.Key{Table: table, Row: row}, Value: []byte(val)}
}

func TestPrecommitCommitRecover(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 3, true)
	writes := map[int][]KV{
		0: {kv("t", "a", "1")},
		1: {kv("t", "b", "2")},
	}
	epoch, tk, err := m.Precommit(7, writes)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(7, 100, epoch, tk); err != nil {
		t.Fatal(err)
	}
	m.Close()

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 1 || st.Discarded != 0 {
		t.Fatalf("committed=%d discarded=%d", st.Committed, st.Discarded)
	}
	if st.MaxTS != 100 {
		t.Fatalf("maxTS %d", st.MaxTS)
	}
	got := map[string]string{}
	for _, w := range st.Writes {
		got[w.Key.String()] = string(w.Value)
	}
	if got["t/a"] != "1" || got["t/b"] != "2" {
		t.Fatalf("writes %v", got)
	}
}

func TestRecoverDiscardsMissingCommitRecord(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 2, true)
	if _, _, err := m.Precommit(1, map[int][]KV{0: {kv("t", "x", "v")}}); err != nil {
		t.Fatal(err)
	}
	// No commit record: the transaction never reached commit.
	m.flushEpoch()
	m.Close()
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 0 || st.Discarded != 1 {
		t.Fatalf("committed=%d discarded=%d", st.Committed, st.Discarded)
	}
}

func TestRecoverDiscardsIncompletePrecommits(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 2, true)
	// Claim two participating shards but only log one precommit (as if
	// the second data server crashed before persisting).
	stageRaw(t, m, recPrecommit, appendPrecommit(nil, 5, m.Epoch(), 2, []KV{kv("t", "x", "v")}))
	if err := m.Commit(5, 50, m.Epoch(), newTicket(1)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 0 || st.Discarded != 1 {
		t.Fatalf("2PC rule violated: committed=%d discarded=%d", st.Committed, st.Discarded)
	}
}

func TestLatestVersionWinsAcrossTxns(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	e1, tk1, _ := m.Precommit(1, map[int][]KV{0: {kv("t", "k", "old")}})
	m.Commit(1, 10, e1, tk1)
	e2, tk2, _ := m.Precommit(2, map[int][]KV{0: {kv("t", "k", "new")}})
	m.Commit(2, 20, e2, tk2)
	m.Close()
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Writes) != 1 || string(st.Writes[0].Value) != "new" {
		t.Fatalf("writes %+v", st.Writes)
	}
}

func TestAsyncDurableNotification(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, false)
	defer m.Close()
	epoch, tk, err := m.Precommit(1, map[int][]KV{0: {kv("t", "k", "v")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(1, 5, epoch, tk); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		if err := m.WaitDurable(epoch); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("durable notification never arrived")
	}
	if m.DurableEpoch() < epoch {
		t.Fatalf("durable epoch %d < %d", m.DurableEpoch(), epoch)
	}
}

func TestPrecommitRoundTripEncoding(t *testing.T) {
	in := []KV{kv("table", "row", "value"), kv("t2", "r2", "")}
	rec := appendPrecommit(nil, 42, 7, 3, in)
	p, err := decodePrecommit(rec)
	if err != nil {
		t.Fatal(err)
	}
	if p.txnID != 42 || p.epoch != 7 || p.nShards != 3 || len(p.writes) != 2 {
		t.Fatalf("%+v", p)
	}
	if p.writes[0].Key.Table != "table" || string(p.writes[0].Value) != "value" {
		t.Fatalf("%+v", p.writes[0])
	}
}

func TestDecodeTruncated(t *testing.T) {
	rec := appendPrecommit(nil, 1, 1, 1, []KV{kv("t", "r", "v")})
	for cut := 0; cut < len(rec); cut += 5 {
		if _, err := decodePrecommit(rec[:cut]); err == nil && cut < len(rec) {
			// Short prefixes may decode iff they form a complete
			// record; the full record is the only valid length.
			if cut != len(rec) {
				t.Fatalf("truncated record at %d decoded", cut)
			}
		}
	}
}
