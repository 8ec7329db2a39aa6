package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	if st.Discarded != 1 {
		t.Fatalf("discarded=%d, want 1", st.Discarded)
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
	if st == nil || st.Committed != 4 || st.MaxTS != 4 || len(st.Writes) != 4 {
		t.Fatalf("recovered %+v", st)
	}
	if again := m2.Recovered(); again != nil {
		t.Fatalf("second Recovered returned %+v", again)
	}
}

// TestCorruptSnapshotFailsRecovery: the snapshot lives in the part of
// wal.log that the checkpoint's rewrite sealed. Truncated or with one byte
// flipped there, Open and Recover fail naming the file and the offset, seed
// nothing and leave the directory byte for byte as it was — replaying the
// records before the damage would silently lose every covered write.
func TestCorruptSnapshotFailsRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		// harm damages the log, whose records start at offs and whose
		// sealed part ends at offs[seal], and returns the offset the error
		// must name.
		harm func(b []byte, offs []int, seal int) ([]byte, int)
	}{
		{"truncated", func(b []byte, offs []int, seal int) ([]byte, int) { return b[:offs[seal]-1], offs[seal-1] }},
		{"flipped byte", func(b []byte, offs []int, seal int) ([]byte, int) { b[offs[3]-2] ^= 0x40; return b, offs[2] }},
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
			path := filepath.Join(dir, logName)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The rewrite sealed the cut, 8 snapshot records and the epoch
			// markers at or above the frontier; the epochs sealed after it
			// appended their markers past the seal.
			offs := recordOffsets(b)
			seal := slices.Index(offs, int(binary.LittleEndian.Uint64(b[8:16])))
			if seal < 10 || offs[len(offs)-1] != len(b) {
				t.Fatalf("record offsets %v in a %d-byte log sealed at %d", offs, len(b), binary.LittleEndian.Uint64(b[8:16]))
			}
			harmed, off := tc.harm(b, offs, seal)
			if err := os.WriteFile(path, harmed, 0o644); err != nil {
				t.Fatal(err)
			}
			before := readDir(t, dir)
			want := fmt.Sprintf("offset %d", off)
			st, err := Recover(dir)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Recover returned %+v, %v; want an error naming %s and %s", st, err, path, want)
			}
			if st != nil {
				t.Fatalf("Recover seeded state from a damaged log: %+v", st)
			}
			if m, err := Open(Options{Dir: dir}); err == nil {
				m.Close()
				t.Fatal("Open accepted a damaged log")
			} else if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Open error does not name %s and %s: %v", path, want, err)
			}
			sameDir(t, dir, before)
		})
	}
}

// recordOffsets returns the offset of every record of a log's bytes b, and
// the offset past the last: each record is u32 klen | u32 vlen | u32 crc |
// key | value, after the store's 16-byte header.
func recordOffsets(b []byte) []int {
	offs := []int{16}
	for off := 16; off+12 <= len(b); {
		off += 12 + int(binary.LittleEndian.Uint32(b[off:])) + int(binary.LittleEndian.Uint32(b[off+4:]))
		offs = append(offs, off)
	}
	return offs
}

// TestTornTailPastSealTruncated: records appended after a checkpoint lie
// past the seal, so a torn one there is truncated as before, and every
// acknowledged commit — in the snapshot or in the tail — survives.
func TestTornTailPastSealTruncated(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, EpochInterval: time.Hour, SyncCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m, 1, 9)
	if _, err := m.Checkpoint(8, snapshotFor(8)); err != nil {
		t.Fatal(err)
	}
	commitN(t, m, 9, 14)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil { // tear transaction 13's record
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotTS != 8 || st.Committed != 4 || st.MaxTS != 12 {
		t.Fatalf("snapshotTS=%d committed=%d maxTS=%d, want 8, 4, 12", st.SnapshotTS, st.Committed, st.MaxTS)
	}
	got := map[string]string{}
	for _, w := range st.Writes {
		got[w.Key.Row] = string(w.Value)
	}
	for k := 0; k < 8; k++ {
		id := 8 + k // the last of ids 1..12 with id%8 == k
		if id > 12 {
			id -= 8
		}
		if want := fmt.Sprintf("v%d", id); got[fmt.Sprintf("r%d", k)] != want {
			t.Fatalf("r%d = %q, want %s (all: %v)", k, got[fmt.Sprintf("r%d", k)], want, got)
		}
	}
}

// TestCheckpointLeavesOnlyTheLog: a checkpoint is one rewrite of wal.log,
// which is the only file in the directory after it.
func TestCheckpointLeavesOnlyTheLog(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 4, true)
	defer m.Close()
	for ck := uint64(1); ck <= 3; ck++ {
		commitN(t, m, 8*ck-7, 8*ck+1)
		if _, err := m.Checkpoint(8*ck, snapshotFor(8*ck)); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != logName {
			t.Fatalf("after checkpoint %d the directory holds %v, want only %s", ck, ents, logName)
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
		refusesLayout(t, files, "manifest checkpoint layout")
	}
}

// TestRefusesSnapshotFileLayout: a directory of the layout whose checkpoint
// was a snapshot file snap-<id>.kv beside the log is refused by name in both
// entry points, and left byte for byte as it was.
func TestRefusesSnapshotFileLayout(t *testing.T) {
	refusesLayout(t, []string{"snap-000003.kv"}, "snapshot-file checkpoint layout")
}

// refusesLayout adds files to a log directory of this version and checks
// that Open and Recover refuse it with an error naming layout, leaving the
// directory byte for byte as it was.
func refusesLayout(t *testing.T, files []string, layout string) {
	t.Helper()
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
	} else if !strings.Contains(err.Error(), layout) {
		t.Fatalf("Open error does not name the %s: %v", layout, err)
	}
	if st, err := Recover(dir); err == nil {
		t.Fatalf("Recover returned %+v from a directory holding %v", st, files)
	} else if !strings.Contains(err.Error(), layout) {
		t.Fatalf("Recover error does not name the %s: %v", layout, err)
	}
	sameDir(t, dir, before)
}

// TestRefusesVersion2Log: a wal.log of store version 2 (the header without a
// seal, written by the snapshot-file layout and earlier) is refused by name
// in both entry points, and left byte for byte as it was.
func TestRefusesVersion2Log(t *testing.T) {
	dir := t.TempDir()
	v2 := binary.LittleEndian.AppendUint32([]byte("TBKV"), 2)
	if err := os.WriteFile(filepath.Join(dir, logName), v2, 0o644); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, dir)
	if m, err := Open(Options{Dir: dir}); err == nil {
		m.Close()
		t.Fatal("Open accepted a log of version 2")
	} else if !strings.Contains(err.Error(), logName) || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("Open error does not name the log and its version: %v", err)
	}
	if st, err := Recover(dir); err == nil {
		t.Fatalf("Recover returned %+v from a log of version 2", st)
	}
	sameDir(t, dir, before)
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

// sameDir fails the test unless dir holds exactly the files of before, byte
// for byte.
func sameDir(t *testing.T, dir string, before map[string][]byte) {
	t.Helper()
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
	sameDir(t, dir, before)
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
