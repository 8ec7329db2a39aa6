package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/wal"
)

// logBytes is e's logical log size. The log file in dir may run up to one
// growth step past it (the zeroed tail), no further.
func logBytes(t *testing.T, e *Engine, dir string) int64 {
	t.Helper()
	var disk int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if filepath.Ext(de.Name()) != ".log" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		disk += info.Size()
	}
	n, err := e.Wal().LogBytes()
	if err != nil {
		t.Fatal(err)
	}
	if disk > n+kvstore.GrowthStep(n) {
		t.Fatalf("log file %d bytes for %d logical bytes: more than one growth step of zeroed tail", disk, n)
	}
	return n
}

var ckSpecs = []*core.Spec{{Name: "put", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}

func ckOptions(dir string) Options {
	return Options{
		Shards:        4,
		LockTimeout:   2 * time.Second,
		DurabilityDir: dir,
		GCPEpoch:      5 * time.Millisecond,
	}
}

// TestCheckpointBoundsLogAndReplay is the acceptance check: after N
// committed transactions with checkpointing, the on-disk log stays bounded
// and recovery replays only post-frontier records (asserted through the
// recovery-replay stats counter).
func TestCheckpointBoundsLogAndReplay(t *testing.T) {
	dir := t.TempDir()
	e, err := New(ckOptions(dir), ckSpecs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 32
	commit := func(n int) {
		for i := 0; i < n; i++ {
			k := core.KeyOf("kv", i%keys)
			err := e.RunTxn("put", 0, func(tx *Tx) error {
				return tx.Write(k, []byte(fmt.Sprintf("round-value-%d", i)))
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	var firstRound int64
	for round := 0; round < 4; round++ {
		commit(200)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		size := logBytes(t, e, dir)
		if round == 0 {
			firstRound = size
		} else if size > 3*firstRound+8192 {
			t.Fatalf("round %d: log grew to %d bytes (first round %d) — compaction is not bounding it", round, size, firstRound)
		}
	}
	snap := e.Stats().Snapshot()
	if snap.Checkpoints != 4 || snap.CheckpointErrors != 0 {
		t.Fatalf("checkpoints=%d errors=%d", snap.Checkpoints, snap.CheckpointErrors)
	}
	if snap.CheckpointTruncatedBytes == 0 {
		t.Fatal("compaction truncated nothing")
	}
	if snap.CheckpointSnapshotBytes == 0 {
		t.Fatal("no snapshot bytes recorded")
	}

	// A small tail after the last checkpoint, then restart.
	commit(10)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, st, err := Recover(ckOptions(dir), ckSpecs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if st.SnapshotTS == 0 {
		t.Fatal("recovery did not start from the checkpoint snapshot")
	}
	// The tail holds only the 10 post-checkpoint transactions, one record
	// each; everything older is covered by the snapshot. Allow slack for
	// records above the cut of transactions committed before the
	// checkpoint.
	replayed := e2.Stats().Snapshot().RecoveryReplayed
	if replayed != uint64(st.Replayed) {
		t.Fatalf("stats counter %d != recovered state %d", replayed, st.Replayed)
	}
	if replayed == 0 || replayed > 60 {
		t.Fatalf("replayed %d records — not a tail-only recovery of ~10", replayed)
	}
	for i := 0; i < keys; i++ {
		got := string(e2.ReadCommitted(core.KeyOf("kv", i)))
		if got == "" {
			t.Fatalf("key %d lost across checkpointed recovery", i)
		}
	}
	// Keys 0..9 were rewritten by the 10-transaction tail; their recovered
	// values must be the tail's, not the checkpoint's.
	for i := 0; i < 10; i++ {
		got := string(e2.ReadCommitted(core.KeyOf("kv", i)))
		if got != fmt.Sprintf("round-value-%d", i) {
			t.Fatalf("kv/%d = %q, want tail value round-value-%d", i, got, i)
		}
	}
}

// TestCheckpointEveryRunsInBackground exercises Options.CheckpointEvery.
func TestCheckpointEveryRunsInBackground(t *testing.T) {
	dir := t.TempDir()
	opts := ckOptions(dir)
	opts.CheckpointEvery = 10 * time.Millisecond
	e, err := New(opts, ckSpecs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		err := e.RunTxn("put", 0, func(tx *Tx) error {
			return tx.Write(core.KeyOf("kv", i%8), []byte(fmt.Sprintf("v%d", i)))
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			time.Sleep(15 * time.Millisecond)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Snapshot().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	snap := e.Stats().Snapshot()
	if snap.Checkpoints == 0 {
		t.Fatal("background checkpointer never ran")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotTS == 0 {
		t.Fatal("no published checkpoint found after background checkpointing")
	}
	got := map[string]bool{}
	for _, w := range st.Writes {
		got[w.Key.Row] = true
	}
	for i := 0; i < 8; i++ {
		if !got[fmt.Sprintf("%d", i)] {
			t.Fatalf("key kv/%d missing after recovery", i)
		}
	}
}

// TestCheckpointRequiresDurability pins the error path.
func TestCheckpointRequiresDurability(t *testing.T) {
	e, err := New(Options{Shards: 2}, ckSpecs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint without durability must fail")
	}
}

// putKV commits one write of row in a "put" transaction and returns the
// transaction's id.
func putKV(t *testing.T, e *Engine, row, val string) uint64 {
	t.Helper()
	var id uint64
	err := e.RunTxn("put", 0, func(tx *Tx) error {
		id = tx.ID()
		return tx.Write(core.Key{Table: "kv", Row: row}, []byte(val))
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestTxnIDsResumeAcrossRecover: transaction ids stay unique across the
// log's lives. Commit a and b, recover, overwrite b, recover: the second
// life's id lies past the first life's, and the new b wins every time.
func TestTxnIDsResumeAcrossRecover(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		opts := ckOptions(t.TempDir())
		opts.DurabilitySync = true
		e, err := New(opts, ckSpecs, G(Kind2PL, []string{"put"}))
		if err != nil {
			t.Fatal(err)
		}
		last := max(putKV(t, e, "a", "a1"), putKV(t, e, "b", "b1"))
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e2, _, err := Recover(opts, ckSpecs, G(Kind2PL, []string{"put"}))
		if err != nil {
			t.Fatal(err)
		}
		if id := putKV(t, e2, "b", "b2"); id <= last {
			t.Fatalf("first id after recovery %d, not past the first life's %d", id, last)
		}
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
		e3, _, err := Recover(opts, ckSpecs, G(Kind2PL, []string{"put"}))
		if err != nil {
			t.Fatal(err)
		}
		got := string(e3.ReadCommitted(core.Key{Table: "kv", Row: "b"}))
		e3.Close()
		if got != "b2" {
			t.Fatalf("trial %d: b = %q after the second recovery, want the acknowledged b2", trial, got)
		}
	}
}

// TestTxnIDsResumePastFullCheckpoint: a checkpoint whose cut covers every
// record leaves no transaction id in the log, yet the next life's ids still
// lie past every id the first life handed out: an id is an oracle timestamp
// below its transaction's commit timestamp, and the oracle resumes past the
// cut.
func TestTxnIDsResumePastFullCheckpoint(t *testing.T) {
	opts := ckOptions(t.TempDir())
	opts.DurabilitySync = true
	e, err := New(opts, ckSpecs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 8; i++ {
		last = max(last, putKV(t, e, fmt.Sprint(i), "v"))
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, st, err := Recover(opts, ckSpecs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if st.Replayed != 0 || st.SnapshotKeys != 8 {
		t.Fatalf("replayed %d records and %d snapshot keys; want a full cut: 0 and 8", st.Replayed, st.SnapshotKeys)
	}
	if id := putKV(t, e2, "x", "v"); id <= last {
		t.Fatalf("first id after recovery %d, not past the first life's %d", id, last)
	}
}

// TestCheckpointRecoversUnderOtherShardCount: the log and its one snapshot
// file do not depend on the number of data servers, so a checkpoint taken
// with 4 shards recovers identically with 2.
func TestCheckpointRecoversUnderOtherShardCount(t *testing.T) {
	dir := t.TempDir()
	e, err := New(ckOptions(dir), ckSpecs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for i := 0; i < 60; i++ {
		v := fmt.Sprintf("v%d", i)
		if err := e.RunTxn("put", 0, func(tx *Tx) error { return tx.Write(core.KeyOf("kv", i%20), []byte(v)) }); err != nil {
			t.Fatal(err)
		}
		want[i%20] = v
		if i == 40 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var states []*wal.RecoveredState
	for _, shards := range []int{4, 2} {
		opts := ckOptions(dir)
		opts.Shards = shards
		e2, st, err := Recover(opts, ckSpecs, G(Kind2PL, []string{"put"}))
		if err != nil {
			t.Fatalf("recovery with %d shards: %v", shards, err)
		}
		for k, v := range want {
			if got := string(e2.ReadCommitted(core.KeyOf("kv", k))); got != v {
				t.Fatalf("recovery with %d shards: kv/%d = %q, want %q", shards, k, got, v)
			}
		}
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
		states = append(states, st)
	}
	a, b := states[0], states[1]
	if a.SnapshotTS == 0 || a.SnapshotTS != b.SnapshotTS || a.SnapshotKeys != b.SnapshotKeys || a.Committed != b.Committed || a.MaxTS != b.MaxTS {
		t.Fatalf("4 shards recovered %+v, 2 shards %+v", *a, *b)
	}
}

// TestFailedCheckpointLeavesLogUnchanged: a checkpoint is one step, the log
// rewrite, so a rewrite that fails — here its temp file vanishes before the
// rename — leaves wal.log byte for byte as it was. The failure is returned
// and counted, later sync commits and checkpoints succeed, and a crash
// image taken afterwards recovers every acknowledged commit.
func TestFailedCheckpointLeavesLogUnchanged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	var fail atomic.Bool
	opts := ckOptions(dir)
	opts.DurabilitySync = true
	opts.GCPEpoch = time.Hour // no epoch ticks: the log changes only when told to
	opts.crashHook = func(point string) error {
		if point == "compact.synced" && fail.Load() {
			os.Remove(path + ".compact")
		}
		return nil
	}
	e, err := New(opts, ckSpecs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want := map[int]string{}
	commit := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			v := fmt.Sprintf("v%d", i)
			if err := e.RunTxn("put", 0, func(tx *Tx) error { return tx.Write(core.KeyOf("kv", i%16), []byte(v)) }); err != nil {
				t.Fatal(err)
			}
			want[i%16] = v
		}
	}
	commit(0, 40)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if err := e.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded though its rewrite could not rename")
	}
	fail.Store(false)
	if snap := e.Stats().Snapshot(); snap.CheckpointErrors != 1 || snap.Checkpoints != 0 {
		t.Fatalf("checkpoints=%d errors=%d, want 0 and 1", snap.Checkpoints, snap.CheckpointErrors)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("wal.log changed by the failed checkpoint (%d bytes, was %d; %v)", len(after), len(before), err)
	}
	commit(40, 60)
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the failed one: %v", err)
	}
	commit(60, 70)

	img := filepath.Join(t.TempDir(), "crash")
	tortureCopyDir(t, dir, img)
	recOpts := ckOptions(img)
	e2, _, err := Recover(recOpts, ckSpecs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for k, v := range want {
		if got := string(e2.ReadCommitted(core.KeyOf("kv", k))); got != v {
			t.Fatalf("kv/%d = %q after recovery, want the acknowledged %q", k, got, v)
		}
	}
}
