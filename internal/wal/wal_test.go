package wal

import (
	"encoding/binary"
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

// stageRaw pushes one hand-built request through the appender and waits for
// it, for tests that need a log no well-behaved committer would write.
func stageRaw(t *testing.T, m *Manager, kind byte, payload []byte) {
	t.Helper()
	tk := newTicket()
	m.app.ch <- appendReq{kind: kind, payload: payload, epoch: m.Epoch(), tk: tk}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

// rawRecord builds a transaction record with the given stamps.
func rawRecord(txnID, commitTS, epoch uint64, kvs ...KV) []byte {
	rec, err := encodeRecord(txnID, len(kvs), func(i int) (core.Key, []byte) { return kvs[i].Key, kvs[i].Value })
	if err != nil {
		panic(err)
	}
	binary.LittleEndian.PutUint64(rec[8:], commitTS)
	binary.LittleEndian.PutUint64(rec[16:], epoch)
	return rec
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

// TestRecoverDiscardsMissingCommitRecord: a transaction that never reached
// its commit point logged nothing — Precommit stages no record — so
// recovery has nothing of it to replay or discard.
func TestRecoverDiscardsMissingCommitRecord(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 2, true)
	if _, _, err := m.Precommit(1, map[int][]KV{0: {kv("t", "x", "v")}}); err != nil {
		t.Fatal(err)
	}
	// No Commit: the transaction never reached its commit point.
	m.flushEpoch()
	m.Close()
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 0 || st.Discarded != 0 || st.Replayed != 0 || len(st.Writes) != 0 {
		t.Fatalf("committed=%d discarded=%d replayed=%d writes=%v", st.Committed, st.Discarded, st.Replayed, st.Writes)
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

func TestRecordRoundTripEncoding(t *testing.T) {
	in := []KV{kv("table", "row", "value"), kv("t2", "r2", "")}
	r, err := decodeRecord(rawRecord(42, 9, 7, in...))
	if err != nil {
		t.Fatal(err)
	}
	if r.txnID != 42 || r.commitTS != 9 || r.epoch != 7 || len(r.writes) != 2 {
		t.Fatalf("%+v", r)
	}
	if r.writes[0].Key.Table != "table" || r.writes[0].Key.Row != "row" || string(r.writes[0].Value) != "value" {
		t.Fatalf("%+v", r.writes[0])
	}
	if r.writes[1].Key != in[1].Key || len(r.writes[1].Value) != 0 {
		t.Fatalf("%+v", r.writes[1])
	}
}

// TestDecodeTruncated: every strict prefix of a record fails to decode, and
// so does a record with trailing bytes.
func TestDecodeTruncated(t *testing.T) {
	rec := rawRecord(1, 1, 1, kv("t", "r", "v"), kv("t", "s", "w"))
	for cut := 0; cut < len(rec); cut++ {
		if _, err := decodeRecord(rec[:cut]); err == nil {
			t.Fatalf("record truncated at %d of %d bytes decoded", cut, len(rec))
		}
	}
	if _, err := decodeRecord(append(rec, 0)); err == nil {
		t.Fatal("record with a trailing byte decoded")
	}
}
