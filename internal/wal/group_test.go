package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitCoalesces drives many concurrent synchronous committers
// through the pipeline and checks (a) their records were coalesced into
// fewer batch appends than records, and (b) recovery replays every
// transaction out of the batched log.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	var batches, records atomic.Uint64
	m, err := Open(Options{
		Dir:           dir,
		Shards:        2,
		EpochInterval: 50 * time.Millisecond,
		SyncCommit:    true,
		Observer: func(n int, d time.Duration, err error) {
			batches.Add(1)
			records.Add(uint64(n))
			if err != nil {
				t.Errorf("batch error: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			writes := map[int][]KV{
				int(id) % 2: {kv("t", fmt.Sprintf("r%d", id), "v")},
			}
			epoch, tk, err := m.Precommit(id, writes)
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Commit(id, 100+id, epoch, tk); err != nil {
				t.Error(err)
				return
			}
			if err := tk.Wait(); err != nil {
				t.Error(err)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	m.Close()

	if got := records.Load(); got != 2*n {
		t.Fatalf("observer saw %d records, want %d", got, 2*n)
	}
	if batches.Load() >= records.Load() {
		t.Fatalf("no coalescing: %d batches for %d records", batches.Load(), records.Load())
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != n {
		t.Fatalf("recovered %d committed txns, want %d (discarded %d)", st.Committed, n, st.Discarded)
	}
	if len(st.Writes) != n {
		t.Fatalf("recovered %d writes, want %d", len(st.Writes), n)
	}
}

// TestEpochBarrierPersistsStagedRecords checks that the GCP epoch flush
// drains the appender queues before publishing the durable frontier: after
// WaitDurable, a recovery from the same directory (simulating a crash — no
// clean Close) must see the transaction.
func TestEpochBarrierPersistsStagedRecords(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 2, false) // async durability
	defer m.Close()

	epoch, tk, err := m.Precommit(9, map[int][]KV{0: {kv("t", "a", "1")}, 1: {kv("t", "b", "2")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(9, 77, epoch, tk); err != nil {
		t.Fatal(err)
	}
	// Async mode: Commit returned without waiting. The durable
	// notification must nonetheless imply the records are on disk.
	if err := m.WaitDurable(epoch); err != nil {
		t.Fatal(err)
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 1 {
		t.Fatalf("durable epoch published but txn not recoverable: committed=%d discarded=%d",
			st.Committed, st.Discarded)
	}
}

// TestBatchSeqResumesAcrossReopen: batch record keys are latest-wins in
// the kvstore, so a reopened Manager must continue the batch
// sequence where the previous incarnation stopped — a restarted counter
// would overwrite old batches and silently lose their transactions.
func TestBatchSeqResumesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	e1, tk1, err := m.Precommit(1, map[int][]KV{0: {kv("t", "first", "a")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(1, 10, e1, tk1); err != nil {
		t.Fatal(err)
	}
	if err := tk1.Wait(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2 := open(t, dir, 1, true)
	e2, tk2, err := m2.Precommit(2, map[int][]KV{0: {kv("t", "second", "b")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Commit(2, 20, e2, tk2); err != nil {
		t.Fatal(err)
	}
	if err := tk2.Wait(); err != nil {
		t.Fatal(err)
	}
	m2.Close()

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 2 {
		t.Fatalf("reopen overwrote earlier batches: committed=%d discarded=%d", st.Committed, st.Discarded)
	}
	got := map[string]string{}
	for _, w := range st.Writes {
		got[w.Key.Row] = string(w.Value)
	}
	if got["first"] != "a" || got["second"] != "b" {
		t.Fatalf("writes %v", got)
	}
}

// TestSyncCommitRecoverableBeforeEpochTick: an acknowledged synchronous
// commit must survive a crash even if no GCP epoch tick ever sealed its
// epoch — the batch flush carries the shard markers forward itself. (A
// regression here means sync commits are silently discarded by recovery's
// epoch-frontier rule until the next tick.)
func TestSyncCommitRecoverableBeforeEpochTick(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Shards: 3, EpochInterval: time.Hour, SyncCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	epoch, tk, err := m.Precommit(11, map[int][]KV{
		0: {kv("t", "a", "1")},
		2: {kv("t", "b", "2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(11, 400, epoch, tk); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	// Crash now: no Close, no epoch tick — recover from the raw files.
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 1 {
		t.Fatalf("acknowledged sync commit lost: committed=%d discarded=%d", st.Committed, st.Discarded)
	}
}

// TestTicketCompletion checks ticket bookkeeping: it completes only after
// the precommit records AND the commit record are appended.
func TestTicketCompletion(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 2, false)
	defer m.Close()

	_, tk, err := m.Precommit(3, map[int][]KV{0: {kv("t", "x", "v")}, 1: {kv("t", "y", "v")}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
		t.Fatal("ticket completed before the commit record was staged")
	case <-time.After(20 * time.Millisecond):
	}
	if err := m.Commit(3, 30, m.Epoch(), tk); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("ticket never completed")
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchRoundTrip exercises the coalesced record encoding directly.
func TestBatchRoundTrip(t *testing.T) {
	pre := appendPrecommit(nil, 7, 3, 2, []KV{kv("t", "r", "v")})
	commit := make([]byte, 24)
	reqs := []appendReq{
		{kind: recPrecommit, payload: pre},
		{kind: recSeal},
		{kind: recCommit, payload: commit},
	}
	buf := appendBatch(nil, reqs, 2)
	entries, err := decodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	if entries[0].kind != recPrecommit || entries[1].kind != recCommit {
		t.Fatalf("kinds %d %d", entries[0].kind, entries[1].kind)
	}
	p, err := decodePrecommit(entries[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	if p.txnID != 7 || p.nShards != 2 {
		t.Fatalf("%+v", p)
	}
	// Truncations must error, not panic.
	for cut := 0; cut < len(buf); cut++ {
		decodeBatch(buf[:cut])
	}
}
