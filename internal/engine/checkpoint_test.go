package engine

import (
	"fmt"
	"os"
	"path/filepath"
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
	// The tail holds only the 10 post-checkpoint transactions (one
	// precommit + one commit record each); everything older is covered by
	// the snapshot. Allow a little slack for commit records of
	// pre-checkpoint transactions that were still queued at the cut.
	replayed := e2.Stats().Snapshot().RecoveryReplayed
	if replayed != uint64(st.Replayed) {
		t.Fatalf("stats counter %d != recovered state %d", replayed, st.Replayed)
	}
	if replayed == 0 || replayed > 60 {
		t.Fatalf("replayed %d records — not a tail-only recovery of ~20", replayed)
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
	st, err := wal.Recover(dir, opts.Shards)
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
