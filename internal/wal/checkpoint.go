package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
)

// This file implements consistent checkpoints and log compaction. A
// checkpoint bounds both the on-disk log and the recovery replay:
//
//  1. The caller (the engine) snapshots the committed state at a
//     watermark-consistent cut snapTS — per key, the latest committed
//     version with commit timestamp <= snapTS — bucketed by data server.
//     Every per-shard snapshot is written to a temp file, fsynced and
//     renamed into place, so a snapshot file either exists completely or
//     not at all.
//  2. A checkpoint frontier marker is staged through the group-commit
//     pipeline. FIFO ordering puts the marker after every record staged
//     before the checkpoint, and the appender fsyncs the whole log prefix
//     with it, so the frontier stays monotone with the durable epoch: a
//     durable marker implies every covered record is durable too.
//  3. The manifest (CHECKPOINT) is written via temp+fsync+rename — the
//     atomic commit point of the checkpoint. Recovery starts from the
//     newest manifest's snapshot and replays only the log tail.
//  4. The log is compacted: records of transactions covered by the snapshot
//     (commit record present with commitTS <= snapTS) are dropped through
//     one atomic kvstore rewrite, so a crash mid-compaction leaves either
//     the complete old log or the complete new one.
//
// Crashes between the steps are all recoverable: before the manifest rename
// the previous checkpoint (or full replay) is used and stale snapshot files
// are ignored; after it, surviving covered records merely replay values the
// snapshot already holds — recovery merges by commit timestamp, so nothing
// is double-applied.

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
	// is covered by the snapshot files.
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

const manifestName = "CHECKPOINT"

func snapshotPath(dir string, ck uint64, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%06d-ds-%03d.kv", ck, shard))
}

// Checkpoint writes a consistent checkpoint at cut snapTS and compacts the
// log. perShard holds, per data server, the latest committed version of
// every key owned by that server at the cut; the caller guarantees that
// every transaction with commitTS <= snapTS has fully finished and that its
// writes are contained in the entries (the engine derives both from the GC
// watermark). Concurrent commits are safe: their records carry commit
// timestamps above the cut and stay in the log tail.
func (m *Manager) Checkpoint(snapTS uint64, perShard [][]SnapshotEntry) (*CheckpointResult, error) {
	m.ckMu.Lock()
	defer m.ckMu.Unlock()
	if len(perShard) != m.opts.Shards {
		return nil, fmt.Errorf("wal: checkpoint got %d shard snapshots, have %d shards", len(perShard), m.opts.Shards)
	}
	ck := m.ckSeq + 1
	res := &CheckpointResult{ID: ck, SnapshotTS: snapTS}

	// 1. Per-shard snapshot files (temp + fsync + rename).
	for i, entries := range perShard {
		n, err := writeSnapshot(m.opts.Dir, ck, i, snapTS, entries)
		if err != nil {
			return nil, err
		}
		res.SnapshotKeys += len(entries)
		res.SnapshotBytes += n
	}
	m.hook("ck.snapshot")

	// 2. Frontier marker through the group-commit pipeline.
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
	m.hook("ck.frontier")

	// 3. Manifest: the checkpoint's atomic commit point.
	if err := writeManifest(m.opts.Dir, ck, snapTS, m.opts.Shards); err != nil {
		return nil, err
	}
	m.ckSeq = ck
	m.hook("ck.manifest")

	// 4. Compact the log: drop records of covered transactions. Records
	// appended between the scan and the rewrite belong to transactions the
	// scan did not cover, and are kept.
	covered := m.coveredTxns(snapTS)
	var err error
	res.LogBytesBefore, res.LogBytesAfter, err = m.st.Rewrite(func(key string, value []byte) ([]byte, bool) {
		return compactRecord(key, value, covered)
	})
	if err != nil {
		return res, err
	}

	// 5. Older checkpoints' snapshot files are superseded.
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

// manifest is the decoded CHECKPOINT file.
type manifest struct {
	ID     uint64
	SnapTS uint64
	Shards int
}

// writeManifest atomically publishes the checkpoint via temp+fsync+rename.
func writeManifest(dir string, ck, snapTS uint64, shards int) error {
	body := fmt.Sprintf("tebaldi-checkpoint v1\nid %d\nsnapts %d\nshards %d\n", ck, snapTS, shards)
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	if _, err = f.WriteString(body); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, manifestName))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: manifest: %w", err)
	}
	// Persist the rename: the manifest IS the checkpoint's commit point, so
	// an unsynced directory entry can un-publish it at the next crash and
	// replay compacted logs without their snapshot. Failing to open the
	// directory is tolerated; a failed fsync is not.
	if d, derr := os.Open(dir); derr == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("wal: manifest dir sync: %w", err)
		}
	}
	return nil
}

// readManifest returns the newest published checkpoint, or nil when none
// exists. A malformed manifest is an error: it can only result from outside
// interference, and silently ignoring it would replay compacted logs without
// their snapshot.
func readManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: manifest: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 4 || lines[0] != "tebaldi-checkpoint v1" {
		return nil, fmt.Errorf("wal: malformed manifest")
	}
	man := &manifest{}
	for _, ln := range lines[1:] {
		f := strings.Fields(ln)
		if len(f) != 2 {
			return nil, fmt.Errorf("wal: malformed manifest line %q", ln)
		}
		v, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: malformed manifest line %q", ln)
		}
		switch f[0] {
		case "id":
			man.ID = v
		case "snapts":
			man.SnapTS = v
		case "shards":
			man.Shards = int(v)
		default:
			return nil, fmt.Errorf("wal: malformed manifest line %q", ln)
		}
	}
	if man.ID == 0 || man.Shards < 1 {
		return nil, fmt.Errorf("wal: malformed manifest")
	}
	return man, nil
}

// Snapshot file format: little-endian binary, written via temp+fsync+rename
// so a visible file is always complete.
//
//	header:  magic "TBSN" | u32 version=1 | u64 snapTS | u32 count
//	entry:   u64 commitTS | u32 tlen | table | u32 rlen | row | u32 vlen | value
func writeSnapshot(dir string, ck uint64, shard int, snapTS uint64, entries []SnapshotEntry) (int64, error) {
	final := snapshotPath(dir, ck, shard)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var n int64
	write := func(b []byte) {
		if err == nil {
			_, err = w.Write(b)
			n += int64(len(b))
		}
	}
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		write(u32[:])
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		write(u64[:])
	}
	write([]byte("TBSN"))
	put32(1)
	put64(snapTS)
	put32(uint32(len(entries)))
	for _, e := range entries {
		put64(e.CommitTS)
		put32(uint32(len(e.Key.Table)))
		write([]byte(e.Key.Table))
		put32(uint32(len(e.Key.Row)))
		write([]byte(e.Key.Row))
		put32(uint32(len(e.Value)))
		write(e.Value)
	}
	if err == nil {
		err = w.Flush()
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
	return n, nil
}

// readSnapshot loads one shard's snapshot file for checkpoint ck.
func readSnapshot(dir string, ck uint64, shard int) (uint64, []SnapshotEntry, error) {
	b, err := os.ReadFile(snapshotPath(dir, ck, shard))
	if err != nil {
		return 0, nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	off := 0
	get := func(n int) ([]byte, bool) {
		if off+n > len(b) {
			return nil, false
		}
		s := b[off : off+n]
		off += n
		return s, true
	}
	hdr, ok := get(4)
	if !ok || string(hdr) != "TBSN" {
		return 0, nil, fmt.Errorf("wal: snapshot %d/%d: bad magic", ck, shard)
	}
	ver, ok := get(4)
	if !ok || binary.LittleEndian.Uint32(ver) != 1 {
		return 0, nil, fmt.Errorf("wal: snapshot %d/%d: bad version", ck, shard)
	}
	tsb, ok1 := get(8)
	cntb, ok2 := get(4)
	if !ok1 || !ok2 {
		return 0, nil, fmt.Errorf("wal: snapshot %d/%d: truncated header", ck, shard)
	}
	snapTS := binary.LittleEndian.Uint64(tsb)
	count := int(binary.LittleEndian.Uint32(cntb))
	entries := make([]SnapshotEntry, 0, count)
	for i := 0; i < count; i++ {
		ctsb, ok := get(8)
		if !ok {
			return 0, nil, fmt.Errorf("wal: snapshot %d/%d: truncated entry", ck, shard)
		}
		var parts [3][]byte
		for j := range parts {
			lb, ok := get(4)
			if !ok {
				return 0, nil, fmt.Errorf("wal: snapshot %d/%d: truncated entry", ck, shard)
			}
			parts[j], ok = get(int(binary.LittleEndian.Uint32(lb)))
			if !ok {
				return 0, nil, fmt.Errorf("wal: snapshot %d/%d: truncated entry", ck, shard)
			}
		}
		val := make([]byte, len(parts[2]))
		copy(val, parts[2])
		entries = append(entries, SnapshotEntry{
			Key:      core.Key{Table: string(parts[0]), Row: string(parts[1])},
			Value:    val,
			CommitTS: binary.LittleEndian.Uint64(ctsb),
		})
	}
	if off != len(b) {
		return 0, nil, fmt.Errorf("wal: snapshot %d/%d: trailing bytes", ck, shard)
	}
	return snapTS, entries, nil
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
		if _, err := fmt.Sscanf(name, "snap-%d-", &ck); err != nil {
			continue
		}
		if ck < keep || strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
