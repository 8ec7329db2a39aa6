package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
)

// dirLogBytes is the log's size in dir (snapshot excluded).
func dirLogBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
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
		n += info.Size()
	}
	return n
}

// logBytes is m's logical log size. The file in dir may run up to one growth
// step past it (the zeroed tail), no further.
func logBytes(t *testing.T, m *Manager, dir string) int64 {
	t.Helper()
	disk := dirLogBytes(t, dir)
	n, err := m.LogBytes()
	if err != nil {
		t.Fatal(err)
	}
	if disk > n+kvstore.GrowthStep(n) {
		t.Fatalf("log file %d bytes for %d logical bytes: more than one growth step of zeroed tail", disk, n)
	}
	return n
}

// commitN commits txns ids [from, to) each writing its id's key on shard 0
// with value fmt.Sprint(ts), at commitTS = id.
func commitN(t *testing.T, m *Manager, from, to uint64) {
	t.Helper()
	for id := from; id < to; id++ {
		w := map[int][]KV{0: {kv("t", fmt.Sprintf("r%d", id%8), fmt.Sprintf("v%d", id))}}
		epoch, tk, err := m.Precommit(id, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(id, id, epoch, tk); err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshotFor builds the snapshot entries matching commitN's state at cut
// snapTS: key r<k> holds the value of the largest id <= snapTS with
// id%8 == k.
func snapshotFor(snapTS uint64) []SnapshotEntry {
	var per []SnapshotEntry
	for k := uint64(0); k < 8; k++ {
		var best uint64
		for id := uint64(1); id <= snapTS; id++ {
			if id%8 == k {
				best = id
			}
		}
		if best == 0 {
			continue
		}
		per = append(per, SnapshotEntry{
			Key:      core.Key{Table: "t", Row: fmt.Sprintf("r%d", k)},
			Value:    []byte(fmt.Sprintf("v%d", best)),
			CommitTS: best,
		})
	}
	return per
}

func TestCheckpointCompactsAndBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 2, true)
	commitN(t, m, 1, 101)
	sizeBefore := logBytes(t, m, dir)

	res, err := m.Checkpoint(100, snapshotFor(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 1 || res.SnapshotTS != 100 {
		t.Fatalf("result %+v", res)
	}
	if res.TruncatedBytes() == 0 {
		t.Fatalf("compaction dropped nothing: %+v", res)
	}
	if got := logBytes(t, m, dir); got >= sizeBefore {
		t.Fatalf("log did not shrink: before=%d after=%d", sizeBefore, got)
	}

	// A small tail after the checkpoint.
	commitN(t, m, 101, 106)
	m.Close()

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotTS != 100 {
		t.Fatalf("snapshotTS %d", st.SnapshotTS)
	}
	if st.SnapshotKeys != 8 {
		t.Fatalf("snapshot keys %d", st.SnapshotKeys)
	}
	// Only the 5 tail transactions replay, one record each.
	if st.Replayed != 5 {
		t.Fatalf("replayed %d records, want 5 (tail only)", st.Replayed)
	}
	if st.MaxTS != 105 {
		t.Fatalf("maxTS %d", st.MaxTS)
	}
	got := map[string]string{}
	for _, w := range st.Writes {
		got[w.Key.Row] = string(w.Value)
	}
	// Every key's latest write must survive: r0..r7 written last by ids
	// 96..105 (id%8 picks the row).
	for k := 0; k < 8; k++ {
		var want uint64
		for id := uint64(1); id <= 105; id++ {
			if int(id%8) == k {
				want = id
			}
		}
		if got[fmt.Sprintf("r%d", k)] != fmt.Sprintf("v%d", want) {
			t.Fatalf("r%d = %q, want v%d (all: %v)", k, got[fmt.Sprintf("r%d", k)], want, got)
		}
	}
}

func TestRepeatedCheckpointsKeepLogBounded(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 2, true)
	var firstRound int64
	var id uint64 = 1
	for round := 0; round < 5; round++ {
		commitN(t, m, id, id+60)
		id += 60
		res, err := m.Checkpoint(id-1, snapshotFor(id-1))
		if err != nil {
			t.Fatal(err)
		}
		size := res.LogBytesAfter
		logBytes(t, m, dir)
		if round == 0 {
			firstRound = size
			continue
		}
		// Bounded: the compacted log must not accumulate history across
		// rounds (generous 3x slack for marker/epoch bookkeeping).
		if size > 3*firstRound+4096 {
			t.Fatalf("round %d: log grew to %d bytes (first round %d)", round, size, firstRound)
		}
	}
	m.Close()
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 0 {
		t.Fatalf("replayed %d records after a clean final checkpoint", st.Replayed)
	}
	if st.SnapshotTS != id-1 {
		t.Fatalf("snapshotTS %d want %d", st.SnapshotTS, id-1)
	}
}

func TestCheckpointIDResumesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	commitN(t, m, 1, 9)
	if res, err := m.Checkpoint(8, snapshotFor(8)); err != nil || res.ID != 1 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	m.Close()

	m2 := open(t, dir, 1, true)
	commitN(t, m2, 9, 17)
	res, err := m2.Checkpoint(16, snapshotFor(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 2 {
		t.Fatalf("checkpoint id %d after reopen, want 2", res.ID)
	}
	m2.Close()

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotTS != 16 || st.Replayed != 0 {
		t.Fatalf("snapshotTS=%d replayed=%d", st.SnapshotTS, st.Replayed)
	}
}

func TestRecoveryIgnoresUnpublishedSnapshots(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	commitN(t, m, 1, 9)
	// The snapshot file is written but no marker is staged: the checkpoint
	// never committed, so recovery must fall back to full replay.
	if _, err := writeSnapshot(dir, 1, 8, snapshotFor(8)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotTS != 0 || st.SnapshotKeys != 0 {
		t.Fatalf("unpublished snapshot used: %+v", st)
	}
	if st.Committed != 8 {
		t.Fatalf("committed %d", st.Committed)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := []SnapshotEntry{
		{Key: core.Key{Table: "acct", Row: "alice"}, Value: []byte("100"), CommitTS: 7},
		{Key: core.Key{Table: "acct", Row: ""}, Value: nil, CommitTS: 9},
	}
	if _, err := writeSnapshot(dir, 3, 11, in); err != nil {
		t.Fatal(err)
	}
	out, err := readSnapshot(dir, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out=%v", out)
	}
	if out[0].Key != in[0].Key || string(out[0].Value) != "100" || out[0].CommitTS != 7 {
		t.Fatalf("%+v", out[0])
	}
	if out[1].Key != in[1].Key || len(out[1].Value) != 0 || out[1].CommitTS != 9 {
		t.Fatalf("%+v", out[1])
	}
}

// TestCompactionKeepsRecordOrder: compaction drops the records the cut
// covers and keeps the others in their log order, which here is not their
// commit-timestamp order.
func TestCompactionKeepsRecordOrder(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	defer m.Close()
	commitTS := []uint64{7, 2, 9, 4, 12, 1, 10, 5, 11, 3, 8, 6}
	for i, ts := range commitTS {
		id := uint64(i + 1)
		epoch, tk, err := m.Precommit(id, map[int][]KV{0: {kv("t", fmt.Sprintf("r%d", id), "v")}})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(id, ts, epoch, tk); err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Checkpoint(6, nil); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, r := range logRecords(t, dir) {
		if r.key == txnKey {
			rec, err := decodeRecord(r.value)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rec.commitTS)
		}
	}
	if want := "[7 9 12 10 11 8]"; fmt.Sprint(got) != want {
		t.Fatalf("commit timestamps of the compacted log's records %v, want %s", got, want)
	}
}

// TestCompactionKeepsNewestMarkers: after two checkpoints the log holds
// exactly one checkpoint marker, the second's, and no epoch marker below
// the durable frontier.
func TestCompactionKeepsNewestMarkers(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, false)
	var frontier uint64 // the durable frontier as the last checkpoint starts
	for ck := uint64(1); ck <= 2; ck++ {
		commitN(t, m, 8*ck-7, 8*ck+1)
		if err := m.WaitDurable(m.Epoch()); err != nil {
			t.Fatal(err)
		}
		frontier = m.DurableEpoch()
		if _, err := m.Checkpoint(8*ck, snapshotFor(8*ck)); err != nil {
			t.Fatal(err)
		}
	}
	var cks, epochs []uint64
	for _, r := range logRecords(t, dir) {
		switch r.key {
		case ckKey:
			cks = append(cks, binary.LittleEndian.Uint64(r.value))
		case epochKey:
			epochs = append(epochs, binary.LittleEndian.Uint64(r.value))
		}
	}
	if fmt.Sprint(cks) != "[2]" {
		t.Fatalf("checkpoint markers %v after two checkpoints, want [2]", cks)
	}
	if len(epochs) == 0 {
		t.Fatal("compaction dropped every epoch marker")
	}
	for _, e := range epochs {
		if e < frontier {
			t.Fatalf("epoch markers %v: %d is below the durable frontier %d at compaction", epochs, e, frontier)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotTS != 16 || st.Committed != 0 {
		t.Fatalf("recovered snapshotTS=%d committed=%d, want 16 and 0", st.SnapshotTS, st.Committed)
	}
}

// TestTornTailKeepsRecordPrefix: a crash inside a run of records keeps the
// records before the torn one — a prefix of the one FIFO — and recovery
// replays every one of them whose epoch a marker covers.
func TestTornTailKeepsRecordPrefix(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, EpochInterval: time.Hour, SyncCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m, 1, 5) // one epoch: the first batch's marker covers them all
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil { // tear transaction 4's record
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 3 || st.Discarded != 0 || st.MaxTS != 3 {
		t.Fatalf("committed=%d discarded=%d maxTS=%d, want 3, 0, 3", st.Committed, st.Discarded, st.MaxTS)
	}
}
