package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRefusesPerDataServerLayout: a directory written by the log-per-data-
// server layout must fail loudly in both entry points — opened or recovered
// as the one-log layout it would look empty and its history would be gone.
func TestRefusesPerDataServerLayout(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"ds-000.log", "ds-001.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if m, err := Open(Options{Dir: dir, Shards: 2}); err == nil {
		m.Close()
		t.Fatal("Open accepted a directory holding ds-*.log files")
	} else if !strings.Contains(err.Error(), "per-data-server layout") || !strings.Contains(err.Error(), "ds-000.log") {
		t.Fatalf("Open error does not name the layout: %v", err)
	}
	if st, err := Recover(dir); err == nil {
		t.Fatalf("Recover returned %+v from a directory holding ds-*.log files", st)
	} else if !strings.Contains(err.Error(), "per-data-server layout") {
		t.Fatalf("Recover error does not name the layout: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); !os.IsNotExist(err) {
		t.Fatalf("a refused directory was written to: %v", err)
	}
}

// stageTxn stages a transaction with one write on each of `shards` data
// servers — one record — without waiting.
func stageTxn(t testing.TB, m *Manager, id uint64, shards int) *Ticket {
	t.Helper()
	writes := map[int][]KV{}
	for s := 0; s < shards; s++ {
		writes[s] = []KV{kv("t", fmt.Sprintf("r%d-%d", id, s), "v")}
	}
	epoch, tk, err := m.Precommit(id, writes)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(id, 100+id, epoch, tk); err != nil {
		t.Fatal(err)
	}
	return tk
}

// TestOneFsyncAcksEveryQueuedCommitter pins the group commit
// deterministically: the first transaction's record is staged alone, so the
// batch the appender parks in holds exactly that one record; then K
// multi-shard committers are staged behind it. On release exactly one
// further batch carries all of their records, one per transaction, and one
// fsync completes every ticket.
func TestOneFsyncAcksEveryQueuedCommitter(t *testing.T) {
	const committers, shards = 8, 3
	parked, release := make(chan struct{}), make(chan struct{})
	var flushes atomic.Int32
	var mu sync.Mutex
	var batches []int
	m, err := Open(Options{
		Dir: t.TempDir(), Shards: 4, EpochInterval: time.Hour, SyncCommit: true,
		CrashHook: func(point string) error {
			if point == "flush" && flushes.Add(1) == 1 {
				close(parked)
				<-release
			}
			return nil
		},
		Observer: func(records int, _ time.Duration, err error) {
			if err != nil {
				t.Errorf("batch error: %v", err)
			}
			mu.Lock()
			batches = append(batches, records)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	first := stageTxn(t, m, 1, 1)
	<-parked // batch 1, the lone first record, is fsynced; its ticket is not completed
	tickets := []*Ticket{first}
	for id := uint64(2); id < 2+committers; id++ {
		tickets = append(tickets, stageTxn(t, m, id, shards))
	}
	for i, tk := range tickets {
		select {
		case <-tk.Done():
			t.Fatalf("ticket %d completed while the appender was parked in the first flush", i)
		default:
		}
	}
	close(release)
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := flushes.Load(); got != 2 {
		t.Fatalf("%d fsyncs acknowledged %d committers, want 2 (one for the parked batch, one for everyone queued behind it)", got, len(tickets))
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []int{1, committers}; len(batches) != 2 || batches[0] != want[0] || batches[1] != want[1] {
		t.Fatalf("batches carried %v records, want %v", batches, want)
	}
}

// TestLogErrorIsSticky: the first fsync failure poisons the log. The
// committers in the failed batch, the ones queued behind it and every later
// one all get the same error; nothing reaches the disk afterwards, so no
// later fsync can vouch for the lost batch.
func TestLogErrorIsSticky(t *testing.T) {
	dir := t.TempDir()
	parked, release := make(chan struct{}), make(chan struct{})
	var appends atomic.Int32
	var failedBatches atomic.Int32
	var fault SyncFault
	m, err := Open(Options{
		Dir: dir, Shards: 2, EpochInterval: time.Hour, SyncCommit: true,
		CrashHook: func(point string) error {
			if point == "append" && appends.Add(1) == 2 {
				close(parked)
				<-release
			}
			return fault.Hook(point)
		},
		Observer: func(_ int, _ time.Duration, err error) {
			if err != nil {
				failedBatches.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stageTxn(t, m, 1, 2).Wait(); err != nil {
		t.Fatal(err)
	}
	syncsBefore := fault.Syncs()

	fault.Arm()
	inBatch := stageTxn(t, m, 2, 2)
	<-parked // batch 2 is appended; its fsync will fail
	queued := []*Ticket{stageTxn(t, m, 3, 1), stageTxn(t, m, 4, 2)}
	close(release)

	err = inBatch.Wait()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("committer in the failed batch got %v", err)
	}
	for i, tk := range queued {
		if qerr := tk.Wait(); !errors.Is(qerr, ErrInjected) {
			t.Fatalf("committer %d queued behind the failed batch got %v", i, qerr)
		}
	}
	if _, _, perr := m.Precommit(5, map[int][]KV{0: {kv("t", "late", "v")}}); !errors.Is(perr, ErrInjected) {
		t.Fatalf("later Precommit got %v", perr)
	}
	if cerr := m.Commit(6, 106, m.Epoch(), newTicket()); !errors.Is(cerr, ErrInjected) {
		t.Fatalf("later Commit got %v", cerr)
	}
	if !errors.Is(m.Err(), ErrInjected) || !errors.Is(m.WaitDurable(m.Epoch()), ErrInjected) {
		t.Fatalf("Err=%v", m.Err())
	}
	if _, cerr := m.Checkpoint(1, nil); !errors.Is(cerr, ErrInjected) {
		t.Fatalf("Checkpoint on a poisoned log got %v", cerr)
	}
	if ferr := m.flushEpoch(); !errors.Is(ferr, ErrInjected) {
		t.Fatalf("seal on a poisoned log got %v", ferr)
	}
	if got := fault.Syncs(); got != syncsBefore {
		t.Fatalf("%d fsyncs reached the disk after the failure", got-syncsBefore)
	}
	if failedBatches.Load() == 0 {
		t.Fatal("the observer never saw the failed batch")
	}
	if cerr := m.Close(); !errors.Is(cerr, ErrInjected) {
		t.Fatalf("Close of a poisoned log returned %v", cerr)
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, w := range st.Writes {
		got[w.Key.Row] = true
	}
	if !got["r1-0"] || !got["r1-1"] {
		t.Fatalf("acknowledged commit lost: %v", got)
	}
	for _, row := range []string{"r3-0", "r4-0", "r4-1", "late"} {
		if got[row] {
			t.Fatalf("%s was written after the log failed", row)
		}
	}
}

// TestAllocBudgetPrecommitCommit: staging, appending and flushing a 3-shard
// transaction through the frozen two-call entry point. Committer side: the
// ticket, its channel and its write slice, the record. Appender side, per
// batch: the key string, kvstore's copy of the value, the epoch marker.
func TestAllocBudgetPrecommitCommit(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir(), Shards: 4, EpochInterval: time.Hour, SyncCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	val := make([]byte, 100)
	writes := map[int][]KV{
		0: {{Key: core.KeyOf("t", 1), Value: val}},
		1: {{Key: core.KeyOf("t", 2), Value: val}},
		3: {{Key: core.KeyOf("t", 3), Value: val}},
	}
	var id uint64
	const budget = 14
	got := testing.AllocsPerRun(200, func() {
		id++
		epoch, tk, err := m.Precommit(id, writes)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(id, id, epoch, tk); err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Precommit+Commit+Wait, 3 shards: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("Precommit+Commit+Wait, 3 shards: %.1f allocs/op exceeds budget %d", got, budget)
	}
}

// BenchmarkSyncCommit is the log on its own: closed-loop committers, each
// staging a transaction of writes_per_txn writes and waiting for its fsync.
// records/batch (one record per transaction) and fsyncs/txn say how much of
// the fsync the committers shared.
func BenchmarkSyncCommit(b *testing.B) {
	for _, committers := range []int{1, 8} {
		for _, writes := range []int{1, 4} {
			b.Run(fmt.Sprintf("committers=%d/writes_per_txn=%d", committers, writes), func(b *testing.B) {
				var batches, records atomic.Int64
				m, err := Open(Options{
					Dir: b.TempDir(), Shards: 16, EpochInterval: time.Hour, SyncCommit: true,
					Observer: func(n int, _ time.Duration, err error) {
						if err != nil {
							b.Error(err)
						}
						batches.Add(1)
						records.Add(int64(n))
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				val := make([]byte, 100)
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for c := 0; c < committers; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
							kvs := make([]KV, writes)
							for w := range kvs {
								kvs[w] = KV{Key: core.KeyOf("t", int(i)*writes+w), Value: val}
							}
							epoch, tk, err := m.Precommit(uint64(i), map[int][]KV{0: kvs})
							if err == nil {
								err = m.Commit(uint64(i), uint64(i), epoch, tk)
							}
							if err == nil {
								err = tk.Wait()
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				// Under SyncCommit with no epoch tick, every batch is one fsync.
				b.ReportMetric(float64(records.Load())/float64(batches.Load()), "records/batch")
				b.ReportMetric(float64(batches.Load())/float64(b.N), "fsyncs/txn")
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// TestStageCommitPointContract: Stage runs the caller's commit point only on
// a usable log and then always stages the record; on a closed log the
// transaction is never committed at all, and Stage returns no ticket.
func TestStageCommitPointContract(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	writes := []core.WriteRef{{Chain: core.NewChain(core.Key{Table: "t", Row: "x"}), V: &core.Version{Value: []byte("v")}}}
	tk, err := m.Stage(2, writes, func() uint64 { return 20 })
	if err != nil || tk == nil {
		t.Fatalf("Stage returned %v, %v", tk, err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	ran := false
	if tk, err := m.Stage(3, writes, func() uint64 { ran = true; return 30 }); tk != nil || !errors.Is(err, errClosed) || ran {
		t.Fatalf("closed log: Stage returned %v, %v with the commit point run=%v", tk, err, ran)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 1 || st.Committed != 1 || len(st.Writes) != 1 || st.Writes[0].CommitTS != 20 || string(st.Writes[0].Value) != "v" {
		t.Fatalf("recovered %+v", st)
	}
}
