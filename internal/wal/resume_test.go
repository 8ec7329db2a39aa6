package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/kvstore"
)

// TestEpochResumesPastFrontier: a reopened log's epoch counter starts past
// the frontier marker. Restarted at 1, records of the new life would carry
// epochs the log already calls sealed.
func TestEpochResumesPastFrontier(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.DurableEpoch() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := m.Epoch() - 1 // Close sealed the epoch that was open
	if sealed < 5 {
		t.Fatalf("only %d epochs sealed", sealed)
	}
	m2, err := Open(Options{Dir: dir, EpochInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Epoch(); got <= sealed {
		t.Fatalf("reopened epoch %d, but the log sealed up to %d", got, sealed)
	}
	if got := m2.DurableEpoch(); got != sealed {
		t.Fatalf("reopened durable epoch %d, want the frontier %d", got, sealed)
	}
}

// TestUnsealedCommitStaysDiscarded: a committed transaction whose epoch the
// frontier does not cover is discarded at recovery, and must stay discarded
// once a later life seals past that epoch. Open drops it from the log.
func TestUnsealedCommitStaysDiscarded(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	commitN(t, m, 1, 3)
	// Transaction 7's record claims epoch 50; the frontier stays low.
	stageRaw(t, m, recTxn, rawRecord(7, 1000, 50, kv("t", "ghost", "unsealed")))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Discarded != 1 || st.MaxTxnID != 7 {
		t.Fatalf("discarded=%d maxTxnID=%d, want 1 and 7", st.Discarded, st.MaxTxnID)
	}

	m2, err := Open(Options{Dir: dir, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m2.DurableEpoch() <= 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Recover(dir); err != nil {
		t.Fatal(err)
	}
	for _, w := range st.Writes {
		if w.Key.Row == "ghost" {
			t.Fatalf("discarded transaction recovered once the frontier passed its epoch: %+v", w)
		}
	}
	if st.Committed != 2 {
		t.Fatalf("committed %d, want 2", st.Committed)
	}
}

// TestMaxTxnIDCountsEveryEntry: MaxTxnID covers discarded transactions too
// — a new life must not reuse any id in the log.
func TestMaxTxnIDCountsEveryEntry(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	commitN(t, m, 1, 3)
	// Transaction 12's record lies past the frontier: discarded.
	stageRaw(t, m, recTxn, rawRecord(12, 1000, 50, kv("t", "x", "unsealed")))
	if _, _, err := m.Precommit(14, map[int][]KV{0: {kv("t", "x", "orphan")}}); err != nil {
		t.Fatal(err) // never committed: logs nothing
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxTxnID != 12 || st.Committed != 2 || st.Discarded != 1 {
		t.Fatalf("maxTxnID=%d committed=%d discarded=%d, want 12, 2, 1", st.MaxTxnID, st.Committed, st.Discarded)
	}
}

// TestOpenHandsOverRecoveredStateOnce: Open's scan is the recovery, and
// Recovered gives its state away exactly once.
func TestOpenHandsOverRecoveredStateOnce(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	commitN(t, m, 1, 5)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := open(t, dir, 1, true)
	defer m2.Close()
	st := m2.Recovered()
	if st == nil || st.Committed != 4 || st.MaxTS != 4 || st.MaxTxnID != 4 || len(st.Writes) != 4 {
		t.Fatalf("recovered %+v", st)
	}
	if again := m2.Recovered(); again != nil {
		t.Fatalf("second Recovered returned %+v", again)
	}
}

// TestCorruptSnapshotFailsRecovery: the snapshot the checkpoint marker
// names is checksummed. Truncated or with one byte flipped, recovery fails
// naming the file and seeds nothing — replaying the compacted log without it
// would silently lose every covered write.
func TestCorruptSnapshotFailsRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		harm func(b []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := open(t, dir, 1, true)
			commitN(t, m, 1, 17)
			if _, err := m.Checkpoint(16, snapshotFor(16)); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			path := snapshotPath(dir, 1)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.harm(b), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Recover(dir)
			if err == nil || !strings.Contains(err.Error(), filepath.Base(path)) {
				t.Fatalf("Recover returned %+v, %v; want an error naming %s", st, err, filepath.Base(path))
			}
			if st != nil {
				t.Fatalf("Recover seeded state from a corrupt snapshot: %+v", st)
			}
			if m, err := Open(Options{Dir: dir}); err == nil {
				m.Close()
				t.Fatal("Open accepted a corrupt snapshot")
			}
		})
	}
}

// TestOneSnapshotFilePerCheckpoint: each checkpoint writes one file, and the
// previous checkpoint's file is gone once the next one is committed.
func TestOneSnapshotFilePerCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 4, true)
	defer m.Close()
	for ck := uint64(1); ck <= 3; ck++ {
		commitN(t, m, 8*ck-7, 8*ck+1)
		if _, err := m.Checkpoint(8*ck, snapshotFor(8*ck)); err != nil {
			t.Fatal(err)
		}
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
		if len(snaps) != 1 || snaps[0] != snapshotPath(dir, ck) {
			t.Fatalf("after checkpoint %d: snapshot files %v", ck, snaps)
		}
	}
}

// TestRefusesManifestCheckpointLayout: a directory checkpointed by the
// layout with a CHECKPOINT manifest and one snapshot per data server is
// refused by name in both entry points, and left byte for byte as it was.
func TestRefusesManifestCheckpointLayout(t *testing.T) {
	for _, files := range [][]string{
		{"CHECKPOINT", "snap-000001-ds-000.kv", "snap-000001-ds-001.kv"},
		{"CHECKPOINT"},
		{"snap-000002-ds-000.kv"},
	} {
		dir := t.TempDir()
		m := open(t, dir, 2, true)
		commitN(t, m, 1, 9)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("old "+name), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := readDir(t, dir)
		if m, err := Open(Options{Dir: dir}); err == nil {
			m.Close()
			t.Fatalf("Open accepted a directory holding %v", files)
		} else if !strings.Contains(err.Error(), "manifest checkpoint layout") {
			t.Fatalf("Open error does not name the layout: %v", err)
		}
		if st, err := Recover(dir); err == nil {
			t.Fatalf("Recover returned %+v from a directory holding %v", st, files)
		} else if !strings.Contains(err.Error(), "manifest checkpoint layout") {
			t.Fatalf("Recover error does not name the layout: %v", err)
		}
		after := readDir(t, dir)
		if len(after) != len(before) {
			t.Fatalf("refused directory changed: %d files before, %d after", len(before), len(after))
		}
		for name, b := range before {
			if string(after[name]) != string(b) {
				t.Fatalf("refused directory changed: %s differs", name)
			}
		}
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, de := range ents {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = b
	}
	return out
}

// TestSnapshotCutMustMatchMarker: recovery loads the snapshot the ck marker
// names only if the file was cut where the marker says.
func TestSnapshotCutMustMatchMarker(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	commitN(t, m, 1, 9)
	if _, err := writeSnapshot(dir, 1, 8, snapshotFor(8)); err != nil {
		t.Fatal(err)
	}
	marker := binary.LittleEndian.AppendUint64(nil, 1)
	stageRaw(t, m, recCheckpoint, binary.LittleEndian.AppendUint64(marker, 6))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "cut 8") {
		t.Fatalf("Recover returned %+v, %v; want the cut mismatch", st, err)
	}
}

// TestRefusesTwoPhaseRecordFormat: a log holding a batch of the two-phase
// record format — precommit (kind 1), commit (2) or abort (4) entries — is
// refused by name in both entry points. Read as the one-record format, its
// transactions would silently be gone. The log is left as it was.
func TestRefusesTwoPhaseRecordFormat(t *testing.T) {
	le := binary.LittleEndian
	precommit := le.AppendUint64(nil, 20) // txnID | epoch | nShards | count=0
	precommit = le.AppendUint64(precommit, 1)
	precommit = le.AppendUint32(le.AppendUint32(precommit, 1), 0)
	commit := le.AppendUint64(le.AppendUint64(le.AppendUint64(nil, 20), 30), 1)
	for _, tc := range []struct {
		name    string
		kind    byte
		payload []byte
	}{
		{"precommit", 1, precommit},
		{"commit", 2, commit},
		{"abort", 4, le.AppendUint64(nil, 21)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refusesBatch(t, tc.kind, tc.payload, "two-phase record format")
		})
	}
}

// TestRefusesBatchedFormat: a log of the batched format, where one store
// record b/<seq> held a whole group-commit batch of transaction records
// (kind 5), is refused by name in both entry points, and its bytes are left
// as they were.
func TestRefusesBatchedFormat(t *testing.T) {
	refusesBatch(t, 5, rawRecord(20, 30, 1, kv("t", "old", "v")), "batched format")
}

// refusesBatch appends one batch of the old format, holding one entry of the
// given kind, to a log of this version, and checks that Open and Recover
// refuse the log with an error naming the format, leaving the directory
// byte for byte as it was.
func refusesBatch(t *testing.T, kind byte, payload []byte, format string) {
	t.Helper()
	le := binary.LittleEndian
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	commitN(t, m, 1, 5)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	batch := le.AppendUint32(nil, 1)
	batch = append(batch, kind)
	batch = append(le.AppendUint32(batch, uint32(len(payload))), payload...)
	st, err := kvstore.Open(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Set("b/100", batch); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, dir)

	if m, err := Open(Options{Dir: dir}); err == nil {
		m.Close()
		t.Fatalf("Open accepted a log of the %s", format)
	} else if !strings.Contains(err.Error(), format) {
		t.Fatalf("Open error does not name the %s: %v", format, err)
	}
	if rec, err := Recover(dir); err == nil {
		t.Fatalf("Recover returned %+v from a log of the %s", rec, format)
	} else if !strings.Contains(err.Error(), format) {
		t.Fatalf("Recover error does not name the %s: %v", format, err)
	}
	after := readDir(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused directory changed: %d files before, %d after", len(before), len(after))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("refused directory changed: %s differs", name)
		}
	}
}

// logRecord is one record of dir's log, as the store reads it back.
type logRecord struct {
	key   string
	value []byte
}

// logRecords reads every record of dir's log, in file order.
func logRecords(t *testing.T, dir string) []logRecord {
	t.Helper()
	st, err := kvstore.Open(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	var out []logRecord
	if err := st.Scan(func(k string, v []byte) error {
		out = append(out, logRecord{k, bytes.Clone(v)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}
