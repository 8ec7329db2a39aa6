package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
)

// logBytes is m's logical log size. The file in dir may run up to one growth
// step past it (the zeroed tail), no further.
func logBytes(t *testing.T, m *Manager, dir string) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	disk := info.Size()
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
	if res.SnapshotTS != 100 || res.SnapshotKeys != 8 {
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

// TestCheckpointReplacesEarlierAcrossReopen: a checkpoint in a later life
// replaces the earlier life's cut and snapshot records; the log holds one
// cut, and recovery starts from it.
func TestCheckpointReplacesEarlierAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	commitN(t, m, 1, 9)
	if _, err := m.Checkpoint(8, snapshotFor(8)); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2 := open(t, dir, 1, true)
	commitN(t, m2, 9, 17)
	if _, err := m2.Checkpoint(16, snapshotFor(16)); err != nil {
		t.Fatal(err)
	}
	m2.Close()

	var cuts []uint64
	snaps := 0
	for _, r := range logRecords(t, dir) {
		switch r.key {
		case cutKey:
			cuts = append(cuts, binary.LittleEndian.Uint64(r.value))
		case txnKey:
			if binary.LittleEndian.Uint64(r.value) == 0 { // transaction id 0
				snaps++
			}
		}
	}
	if fmt.Sprint(cuts) != "[16]" || snaps != 8 {
		t.Fatalf("cut records %v and %d snapshot records, want [16] and 8", cuts, snaps)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotTS != 16 || st.SnapshotKeys != 8 || st.Replayed != 0 {
		t.Fatalf("snapshotTS=%d snapshotKeys=%d replayed=%d", st.SnapshotTS, st.SnapshotKeys, st.Replayed)
	}
}

// TestRecoveryIgnoresUnpublishedSnapshots: a checkpoint's rewrite that
// crashed before its rename left a temp file holding the new log; the log
// itself is unchanged, so recovery replays it in full and ignores the temp
// file's snapshot.
func TestRecoveryIgnoresUnpublishedSnapshots(t *testing.T) {
	dir := t.TempDir()
	m := open(t, dir, 1, true)
	commitN(t, m, 1, 9)
	before, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(8, snapshotFor(8)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	// The checkpointed log becomes the temp file, the old log the log.
	path := filepath.Join(dir, logName)
	if err := os.Rename(path, path+".compact"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
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

// TestSnapshotRoundTrip: a snapshot entry is the record of a transaction of
// id 0 and epoch 0 with the entry's one write at its commit timestamp.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, in := range []SnapshotEntry{
		{Key: core.Key{Table: "acct", Row: "alice"}, Value: []byte("100"), CommitTS: 7},
		{Key: core.Key{Table: "acct", Row: ""}, Value: nil, CommitTS: 9},
	} {
		rec, err := snapshotRecord(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if out.txnID != 0 || out.epoch != 0 || out.commitTS != in.CommitTS || len(out.writes) != 1 ||
			out.writes[0].Key != in.Key || string(out.writes[0].Value) != string(in.Value) {
			t.Fatalf("%+v round-tripped to %+v", in, out)
		}
		for n := 0; n < len(rec); n++ {
			if _, err := decodeRecord(rec[:n]); err == nil {
				t.Fatalf("decoded a %d-byte prefix of a %d-byte snapshot record", n, len(rec))
			}
		}
		if _, err := decodeRecord(append(rec, 0)); err == nil {
			t.Fatal("decoded a snapshot record with a trailing byte")
		}
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
// exactly one cut, the second's, first, and no epoch marker below the
// durable frontier.
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
	var cuts, epochs []uint64
	recs := logRecords(t, dir)
	for _, r := range recs {
		switch r.key {
		case cutKey:
			cuts = append(cuts, binary.LittleEndian.Uint64(r.value))
		case epochKey:
			epochs = append(epochs, binary.LittleEndian.Uint64(r.value))
		}
	}
	if fmt.Sprint(cuts) != "[16]" || recs[0].key != cutKey {
		t.Fatalf("cut records %v after two checkpoints, want [16] as the first record", cuts)
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

// TestCheckpointDropsQueuedCoveredRecords: a checkpoint taken right after
// asynchronous commits finds some of their records still in the appender's
// queue. It seals the open epoch first, so those records are in the log when
// the rewrite reads it, and the cut drops them: the checkpointed log holds
// the snapshot and no transaction record.
func TestCheckpointDropsQueuedCoveredRecords(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var appends atomic.Int32
	dir := t.TempDir()
	m, err := Open(Options{
		Dir: dir, EpochInterval: time.Hour,
		CrashHook: func(point string) error {
			if point == "append" && appends.Add(1) == 1 {
				close(parked)
				<-release
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(id uint64, row, val string) {
		epoch, tk, err := m.Precommit(id, map[int][]KV{0: {kv("t", row, val)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(id, id, epoch, tk); err != nil {
			t.Fatal(err)
		}
	}
	commit(1, "a", "a1")
	<-parked // transaction 1's record is in the log; the appender waits
	commit(2, "b", "b2")
	snapshot := []SnapshotEntry{
		{Key: core.Key{Table: "t", Row: "a"}, Value: []byte("a1"), CommitTS: 1},
		{Key: core.Key{Table: "t", Row: "b"}, Value: []byte("b2"), CommitTS: 2},
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Checkpoint(2, snapshot)
		done <- err
	}()
	for len(m.app.ch) < 2 { // transaction 2's record, then the checkpoint's seal
		select {
		case err := <-done:
			close(release)
			t.Fatalf("Checkpoint returned (%v) while a record it covers was still queued", err)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotTS != 2 || st.SnapshotKeys != 2 || st.Replayed != 0 || st.MaxTS != 2 {
		t.Fatalf("recovered %+v, want cut 2, 2 snapshot keys and no transaction record", st)
	}
	got := map[string]string{}
	for _, w := range st.Writes {
		got[w.Key.Row] = fmt.Sprintf("%s@%d", w.Value, w.CommitTS)
	}
	if fmt.Sprint(got) != "map[a:a1@1 b:b2@2]" {
		t.Fatalf("recovered %v", got)
	}
}
