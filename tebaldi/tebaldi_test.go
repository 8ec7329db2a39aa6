package tebaldi_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/tebaldi"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func specs() []*tebaldi.Spec {
	return []*tebaldi.Spec{
		{Name: "put", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
		{Name: "get", ReadOnly: true, Tables: []string{"kv"}},
	}
}

func TestInitialConfigShape(t *testing.T) {
	cfg := tebaldi.InitialConfig(specs())
	want := "ssi[ none{get} 2pl{put} ]"
	if got := cfg.String(); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestOpenNilConfigUsesInitial(t *testing.T) {
	db, err := tebaldi.Open(tebaldi.Options{}, specs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.ConfigString(); got != "SSI[ NoCC{get} 2PL{put} ]" {
		t.Fatalf("live tree %q", got)
	}
	if err := db.Run("put", 0, func(tx *tebaldi.Tx) error {
		return tx.Write(tebaldi.K("kv", "a"), u64(1))
	}); err != nil {
		t.Fatal(err)
	}
	var got uint64
	if err := db.Run("get", 0, func(tx *tebaldi.Tx) error {
		v, err := tx.Read(tebaldi.K("kv", "a"))
		if err != nil {
			return err
		}
		got = binary.LittleEndian.Uint64(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("read %d", got)
	}
}

// TestDurabilityRecoverRoundTrip is the facade-level crash/recovery test:
// everything durable must survive; the recovered DB must be writable.
func TestDurabilityRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := tebaldi.Options{DurabilityDir: dir, GCPEpoch: 10 * time.Millisecond}
	db, err := tebaldi.Open(opts, specs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		if err := db.Run("put", 0, func(tx *tebaldi.Tx) error {
			return tx.Write(tebaldi.KeyOf("kv", i), u64(uint64(i)*7))
		}); err != nil {
			t.Fatal(err)
		}
	}
	epoch := db.Engine().Wal().Epoch()
	if err := db.Engine().Wal().WaitDurable(epoch); err != nil {
		t.Fatal(err)
	}
	db.Close() // "crash": discard all in-memory state

	db2, state, err := tebaldi.Recover(opts, specs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if state.Committed != n {
		t.Fatalf("recovered %d committed, want %d (discarded %d)",
			state.Committed, n, state.Discarded)
	}
	for i := 0; i < n; i++ {
		v := db2.ReadCommitted(tebaldi.KeyOf("kv", i))
		if binary.LittleEndian.Uint64(v) != uint64(i)*7 {
			t.Fatalf("key %d lost or corrupt", i)
		}
	}
	// The recovered database accepts new transactions and overwrites
	// recovered state correctly.
	if err := db2.Run("put", 0, func(tx *tebaldi.Tx) error {
		return tx.Write(tebaldi.KeyOf("kv", 0), u64(999))
	}); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(db2.ReadCommitted(tebaldi.KeyOf("kv", 0))); got != 999 {
		t.Fatalf("post-recovery write lost: %d", got)
	}
}

func TestRecoverDropsNonDurableTail(t *testing.T) {
	dir := t.TempDir()
	// Very long epochs: nothing flushes unless we say so.
	opts := tebaldi.Options{DurabilityDir: dir, GCPEpoch: time.Hour}
	db, err := tebaldi.Open(opts, specs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		i := i
		if err := db.Run("put", 0, func(tx *tebaldi.Tx) error {
			return tx.Write(tebaldi.KeyOf("kv", i), u64(1))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without flushing: the epoch never sealed, so per the GCP rule
	// these commits may be lost — but recovery must still succeed.
	db.Close() // Close flushes one final epoch; simulate harder crashes at the kvstore level in internal/wal tests.
	db2, state, err := tebaldi.Recover(opts, specs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if state.Committed+state.Discarded == 0 {
		t.Fatal("no transactions seen in the log")
	}
}

func TestGCPrunesOldVersions(t *testing.T) {
	db, err := tebaldi.Open(tebaldi.Options{GCInterval: 10 * time.Millisecond}, specs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k := tebaldi.K("kv", "hot")
	for i := 0; i < 200; i++ {
		i := i
		if err := db.Run("put", 0, func(tx *tebaldi.Tx) error {
			return tx.Write(k, u64(uint64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let GC run while idle
	if n := db.Engine().Store().Lookup(k).Len(); n > 5 {
		t.Fatalf("chain not pruned: %d versions", n)
	}
	if got := binary.LittleEndian.Uint64(db.ReadCommitted(k)); got != 199 {
		t.Fatalf("latest value %d", got)
	}
}

// TestCheckpointBoundedRestart is the facade-level checkpoint test: after a
// checkpoint, recovery starts from the snapshot and replays only the tail,
// and every committed write still survives.
func TestCheckpointBoundedRestart(t *testing.T) {
	dir := t.TempDir()
	opts := tebaldi.Options{DurabilityDir: dir, GCPEpoch: 10 * time.Millisecond}
	db, err := tebaldi.Open(opts, specs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	put := func(db *tebaldi.DB, i int, v uint64) {
		t.Helper()
		if err := db.Run("put", 0, func(tx *tebaldi.Tx) error {
			return tx.Write(tebaldi.KeyOf("kv", i), u64(v))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		put(db, i%32, uint64(i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := db.Stats().Snapshot()
	if snap.Checkpoints != 1 || snap.CheckpointTruncatedBytes == 0 {
		t.Fatalf("checkpoints=%d truncated=%d", snap.Checkpoints, snap.CheckpointTruncatedBytes)
	}
	// A short tail, then restart.
	for i := 0; i < 5; i++ {
		put(db, i, uint64(1000+i))
	}
	db.Close()

	db2, state, err := tebaldi.Recover(opts, specs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if state.SnapshotTS == 0 || state.SnapshotKeys == 0 {
		t.Fatalf("recovery ignored the checkpoint: %+v", state)
	}
	if state.Replayed == 0 || state.Replayed > 40 {
		t.Fatalf("replayed %d records, want a small tail", state.Replayed)
	}
	if got := db2.Stats().Snapshot().RecoveryReplayed; got != uint64(state.Replayed) {
		t.Fatalf("stats RecoveryReplayed=%d, state=%d", got, state.Replayed)
	}
	for i := 0; i < 5; i++ {
		if got := binary.LittleEndian.Uint64(db2.ReadCommitted(tebaldi.KeyOf("kv", i))); got != uint64(1000+i) {
			t.Fatalf("tail write kv/%d = %d", i, got)
		}
	}
	for i := 5; i < 32; i++ {
		v := db2.ReadCommitted(tebaldi.KeyOf("kv", i))
		if v == nil {
			t.Fatalf("kv/%d lost across checkpointed restart", i)
		}
	}
}

// TestOpenRefusesDamagedCheckpoint: a checkpoint rewrites wal.log and seals
// what it wrote. A flipped byte or a truncation inside that part fails
// Open, naming the file and the offset, and leaves the directory byte for
// byte as it was; replaying the records before the damage would open a
// database that silently lost every write after it.
func TestOpenRefusesDamagedCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		harm func(b []byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[16+12] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:16+5] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := tebaldi.Options{DurabilityDir: dir, DurabilitySync: true}
			db, err := tebaldi.Open(opts, specs(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := db.Run("put", 0, func(tx *tebaldi.Tx) error { return tx.Write(tebaldi.KeyOf("kv", i), u64(uint64(i))) }); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.Run("put", 0, func(tx *tebaldi.Tx) error { return tx.Write(tebaldi.KeyOf("kv", 5), u64(5)) }); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "wal.log")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damaged := tc.harm(b)
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			db2, err := tebaldi.Open(opts, specs(), nil)
			if err == nil {
				db2.Close()
				t.Fatal("opened a log damaged inside its checkpoint")
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "offset 16") {
				t.Fatalf("error does not name %s and offset 16: %v", path, err)
			}
			ents, _ := os.ReadDir(dir)
			if got, _ := os.ReadFile(path); len(ents) != 1 || !bytes.Equal(got, damaged) {
				t.Fatalf("refused directory changed: %v", ents)
			}
		})
	}
}

// TestOpenRecoversExistingLog: Open on a directory that already holds a log
// is a recovery. Started empty, the database would hide the old writes and
// append new ones whose timestamps restart below them, so the older records
// would win at the next recovery.
func TestOpenRecoversExistingLog(t *testing.T) {
	opts := tebaldi.Options{DurabilityDir: t.TempDir(), DurabilitySync: true}
	k := tebaldi.K("kv", "x")
	reopen := func() *tebaldi.DB {
		t.Helper()
		db, err := tebaldi.Open(opts, specs(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := reopen()
	for _, val := range []string{"old", "new"} {
		if err := db.Run("put", 0, func(tx *tebaldi.Tx) error { return tx.Write(k, []byte(val)) }); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = reopen()
		if got := string(db.ReadCommitted(k)); got != val {
			t.Fatalf("reopened database reads %q, want %q", got, val)
		}
	}
	db.Close()
}

func TestIsRetryable(t *testing.T) {
	if !tebaldi.IsRetryable(tebaldi.ErrAborted) {
		t.Fatal("ErrAborted should be retryable")
	}
	if tebaldi.IsRetryable(tebaldi.ErrUserAbort) {
		t.Fatal("user abort should not be retryable")
	}
}
