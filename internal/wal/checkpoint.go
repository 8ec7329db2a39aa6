package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
)

// This file implements consistent checkpoints and log compaction. A
// checkpoint bounds both the on-disk log and the recovery replay:
//
//  1. The caller (the engine) snapshots the committed state at a
//     watermark-consistent cut snapTS — per key, the latest committed
//     version with commit timestamp <= snapTS. The snapshot goes into one
//     file, snap-<id>.kv, written to a temp file, fsynced, renamed into
//     place, and the directory fsynced: before the next step, the file's
//     bytes and its name are durable.
//  2. The checkpoint marker ck (id, snapTS) is staged through the
//     group-commit pipeline. FIFO ordering puts it after every record
//     staged before the checkpoint, and the appender fsyncs the whole log
//     prefix with it. That fsync commits the checkpoint: recovery loads the
//     snapshot the marker names and replays only the log tail.
//  3. The log is compacted: records of transactions covered by the snapshot
//     (commit record present with commitTS <= snapTS) are dropped through
//     one atomic kvstore rewrite, so a crash mid-compaction leaves either
//     the complete old log or the complete new one.
//  4. Older snapshots are deleted.
//
// Crashes between the steps are all recoverable. A durable marker names a
// durable snapshot (step 1 precedes it). Until the new marker is durable the
// old one still names the old snapshot, which is deleted only in step 4.
// Compaction runs only once the marker is durable, and surviving covered
// records merely replay values the snapshot already holds — recovery merges
// by commit timestamp, so nothing is double-applied.

// SnapshotEntry is one key's latest committed version at the checkpoint cut.
type SnapshotEntry struct {
	Key      core.Key
	Value    []byte
	CommitTS uint64
}

// CheckpointResult reports one completed checkpoint.
type CheckpointResult struct {
	// ID is the checkpoint sequence number.
	ID uint64
	// SnapshotTS is the cut: every transaction with commitTS <= SnapshotTS
	// is covered by the snapshot file.
	SnapshotTS uint64
	// SnapshotKeys / SnapshotBytes size the written snapshot.
	SnapshotKeys  int
	SnapshotBytes int64
	// LogBytesBefore / LogBytesAfter measure the log compaction.
	LogBytesBefore int64
	LogBytesAfter  int64
}

// TruncatedBytes returns how many log bytes the compaction dropped.
func (r *CheckpointResult) TruncatedBytes() int64 {
	if r.LogBytesBefore > r.LogBytesAfter {
		return r.LogBytesBefore - r.LogBytesAfter
	}
	return 0
}

func snapshotPath(dir string, ck uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%06d.kv", ck))
}

// Checkpoint writes a consistent checkpoint at cut snapTS and compacts the
// log. entries hold the latest committed version of every key at the cut;
// the caller guarantees that every transaction with commitTS <= snapTS has
// fully finished and that its writes are contained in the entries (the
// engine derives both from the GC watermark). Concurrent commits are safe:
// their records carry commit timestamps above the cut and stay in the log
// tail.
func (m *Manager) Checkpoint(snapTS uint64, entries []SnapshotEntry) (*CheckpointResult, error) {
	m.ckMu.Lock()
	defer m.ckMu.Unlock()
	ck := m.ckSeq + 1
	res := &CheckpointResult{ID: ck, SnapshotTS: snapTS, SnapshotKeys: len(entries)}

	// 1. The snapshot file, durable with its directory entry.
	var err error
	if res.SnapshotBytes, err = writeSnapshot(m.opts.Dir, ck, snapTS, entries); err != nil {
		return nil, err
	}
	m.hook("ck.snapshot")

	// 2. The marker through the group-commit pipeline: its fsync commits
	// the checkpoint.
	payload := make([]byte, 16)
	binary.LittleEndian.PutUint64(payload[0:8], ck)
	binary.LittleEndian.PutUint64(payload[8:16], snapTS)
	tk := newTicket(1)
	m.closeMu.RLock()
	if err := m.unusable(); err != nil {
		m.closeMu.RUnlock()
		return nil, err
	}
	m.app.ch <- appendReq{kind: recCheckpoint, payload: payload, epoch: m.epoch.Load(), tk: tk}
	m.closeMu.RUnlock()
	if err := tk.Wait(); err != nil {
		return nil, err
	}
	m.ckSeq = ck
	m.hook("ck.frontier")

	// 3. Compact the log: drop records of covered transactions. Records
	// appended between the scan and the rewrite belong to transactions the
	// scan did not cover, and are kept.
	covered := m.coveredTxns(snapTS)
	res.LogBytesBefore, res.LogBytesAfter, err = m.st.Rewrite(func(key string, value []byte) ([]byte, bool) {
		return compactRecord(key, value, covered)
	})
	if err != nil {
		return res, err
	}

	// 4. Older checkpoints' snapshots are superseded.
	removeStaleSnapshots(m.opts.Dir, ck)
	return res, nil
}

// coveredTxns scans the log for transactions whose records may all be
// dropped by compaction:
//
//   - committed with commitTS <= snapTS: fully contained in the snapshot
//     (the caller guarantees every such transaction finished before the
//     cut);
//   - aborted after staging precommits (an abort marker exists and no
//     commit record): the commit record can never arrive — the abort marker
//     is staged after the precommits, on the mutually exclusive abort path
//     — so the orphaned records would otherwise survive every checkpoint.
func (m *Manager) coveredTxns(snapTS uint64) map[uint64]bool {
	covered := map[uint64]bool{}
	aborted := map[uint64]bool{}
	committed := map[uint64]bool{} // any commit record, regardless of TS
	m.st.ForEach(func(key string, value []byte) error {
		if !strings.HasPrefix(key, batchPrefix) {
			return nil
		}
		entries, err := decodeBatch(value)
		if err != nil {
			return nil
		}
		for _, e := range entries {
			switch {
			case e.kind == recCommit && len(e.payload) >= 24:
				id := binary.LittleEndian.Uint64(e.payload[0:8])
				committed[id] = true
				if binary.LittleEndian.Uint64(e.payload[8:16]) <= snapTS {
					covered[id] = true
				}
			case e.kind == recAbort && len(e.payload) >= 8:
				aborted[binary.LittleEndian.Uint64(e.payload[0:8])] = true
			}
		}
		return nil
	})
	for id := range aborted {
		if !committed[id] {
			covered[id] = true
		}
	}
	return covered
}

// compactRecord decides one log record's fate under compaction: filter
// covered entries out of coalesced batch records, keep everything else (the
// epoch and checkpoint markers). Precommit, commit and abort payloads all
// lead with the transaction id.
func compactRecord(key string, value []byte, covered map[uint64]bool) ([]byte, bool) {
	if !strings.HasPrefix(key, batchPrefix) {
		return value, true
	}
	entries, err := decodeBatch(value)
	if err != nil {
		return value, true // undecodable: keep as-is, recovery skips it
	}
	n := len(entries)
	kept := entries[:0]
	for _, e := range entries {
		if len(e.payload) >= 8 && covered[binary.LittleEndian.Uint64(e.payload[0:8])] {
			continue
		}
		kept = append(kept, e)
	}
	switch len(kept) {
	case 0:
		return nil, false
	case n:
		return value, true
	}
	return appendBatch(nil, kept, len(kept)), true
}

const (
	snapMagic   = "TBSN"
	snapVersion = 2 // 1 had no checksum and one file per data server
	snapHeader  = 4 + 4 + 8 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot file format, little-endian:
//
//	header:  magic "TBSN" | u32 version=2 | u64 snapTS | u32 count
//	entry:   u64 commitTS | u32 tlen | table | u32 rlen | row | u32 vlen | value
//	trailer: u32 crc32c of everything before it
//
// writeSnapshot writes it to a temp file, fsyncs it, renames it into place
// and fsyncs the directory, so the file and its name are durable before the
// checkpoint marker that names it is staged.
func writeSnapshot(dir string, ck, snapTS uint64, entries []SnapshotEntry) (int64, error) {
	le := binary.LittleEndian
	final := snapshotPath(dir, ck)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot: %w", err)
	}
	sum := crc32.New(castagnoli)
	w := bufio.NewWriterSize(io.MultiWriter(f, sum), 1<<16)
	buf := le.AppendUint32([]byte(snapMagic), snapVersion)
	buf = le.AppendUint64(buf, snapTS)
	buf = le.AppendUint32(buf, uint32(len(entries)))
	n := int64(len(buf))
	_, err = w.Write(buf)
	for _, e := range entries {
		if err != nil {
			break
		}
		buf = le.AppendUint64(buf[:0], e.CommitTS)
		buf = append(le.AppendUint32(buf, uint32(len(e.Key.Table))), e.Key.Table...)
		buf = append(le.AppendUint32(buf, uint32(len(e.Key.Row))), e.Key.Row...)
		buf = append(le.AppendUint32(buf, uint32(len(e.Value))), e.Value...)
		n += int64(len(buf))
		_, err = w.Write(buf)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		_, err = f.Write(le.AppendUint32(nil, sum.Sum32()))
		n += 4
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("wal: snapshot: %w", err)
	}
	// Persist the rename: an unsynced directory entry could vanish at a
	// crash after the marker naming it is durable. Failing to open the
	// directory is tolerated; a failed fsync is not.
	if d, derr := os.Open(dir); derr == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("wal: snapshot dir sync: %w", err)
		}
	}
	return n, nil
}

// readSnapshot loads checkpoint ck's snapshot, which the ck marker says was
// cut at snapTS. A missing, short, corrupt or differently cut file is an
// error naming it: the marker is durable only once its snapshot is, so any
// of these means the directory was changed from outside, and replaying the
// compacted log without its snapshot would lose data.
func readSnapshot(dir string, ck, snapTS uint64) ([]SnapshotEntry, error) {
	le := binary.LittleEndian
	path := snapshotPath(dir, ck)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot of checkpoint %d: %w", ck, err)
	}
	bad := func(what string) error { return fmt.Errorf("wal: snapshot %s: %s", path, what) }
	if len(b) < snapHeader+4 {
		return nil, bad("truncated")
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, castagnoli) != le.Uint32(b[len(body):]) {
		return nil, bad("checksum mismatch")
	}
	if string(body[0:4]) != snapMagic || le.Uint32(body[4:8]) != snapVersion {
		return nil, bad("bad magic or version")
	}
	if cut := le.Uint64(body[8:16]); cut != snapTS {
		return nil, bad(fmt.Sprintf("cut %d, but the checkpoint marker says %d", cut, snapTS))
	}
	count := int(le.Uint32(body[16:20]))
	off := snapHeader
	field := func() ([]byte, bool) {
		if off+4 > len(body) {
			return nil, false
		}
		n := int(le.Uint32(body[off:]))
		off += 4
		if n > len(body)-off {
			return nil, false
		}
		off += n
		return body[off-n : off], true
	}
	entries := make([]SnapshotEntry, 0, min(count, len(body)/20))
	for i := 0; i < count; i++ {
		if off+8 > len(body) {
			return nil, bad("truncated entry")
		}
		cts := le.Uint64(body[off:])
		off += 8
		tbl, ok1 := field()
		row, ok2 := field()
		val, ok3 := field()
		if !ok1 || !ok2 || !ok3 {
			return nil, bad("truncated entry")
		}
		entries = append(entries, SnapshotEntry{
			Key:      core.Key{Table: string(tbl), Row: string(row)},
			Value:    append([]byte(nil), val...),
			CommitTS: cts,
		})
	}
	if off != len(body) {
		return nil, bad("trailing bytes")
	}
	return entries, nil
}

// removeStaleSnapshots deletes snapshot files (and temp leftovers) of
// checkpoints older than keep.
func removeStaleSnapshots(dir string, keep uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if !strings.HasPrefix(name, "snap-") {
			continue
		}
		var ck uint64
		if _, err := fmt.Sscanf(name, "snap-%d", &ck); err != nil {
			continue
		}
		if ck < keep || strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
