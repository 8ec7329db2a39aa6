package wal

import (
	"encoding/binary"

	"repro/internal/core"
)

// This file implements consistent checkpoints and log compaction. A
// checkpoint bounds both the on-disk log and the recovery replay, and it is
// one atomic kvstore rewrite of wal.log. The caller (the engine) snapshots
// the committed state at a watermark-consistent cut — per key, the latest
// committed version with commit timestamp <= the cut. The new log holds
//
//  1. the cut record c;
//  2. one snapshot record per key of the snapshot: a transaction record t
//     of transaction id 0 and epoch 0 holding the key's one write at its
//     commit timestamp;
//  3. the records of the old log the cut does not cover, in their order:
//     transaction records with commitTS > cut, and the epoch markers at or
//     above the durable frontier read as the checkpoint starts. The
//     previous checkpoint's cut record is dropped, and so are its snapshot
//     records, whose commit timestamps are at or below the new cut: the
//     new snapshot covers what they stood for.
//
// The store writes the new file beside the log, seals it (its header
// records that the whole file is durable), fsyncs it and renames it over the
// log. A crash before the rename leaves the old log, complete; after it, the
// new one. Nothing else is written, so there is no third state.
//
// Every transaction at or below the cut has finished, so its record was
// staged before the checkpoint begins; the checkpoint first seals the open
// epoch, which puts every staged record in the log, so the rewrite drops
// them all. Should a covered record still reach the log after the rewrite,
// its writes are in the snapshot at the same commit timestamps, and
// recovery merges by commit timestamp: replaying it changes nothing.

// SnapshotEntry is one key's latest committed version at the checkpoint cut.
type SnapshotEntry struct {
	Key      core.Key
	Value    []byte
	CommitTS uint64
}

// CheckpointResult reports one completed checkpoint.
type CheckpointResult struct {
	// SnapshotTS is the cut: every transaction with commitTS <= SnapshotTS
	// is covered by the snapshot records.
	SnapshotTS uint64
	// SnapshotKeys / SnapshotBytes size the snapshot records' payloads.
	SnapshotKeys  int
	SnapshotBytes int64
	// LogBytesBefore / LogBytesAfter measure the log rewrite.
	LogBytesBefore int64
	LogBytesAfter  int64
}

// TruncatedBytes returns how many log bytes the rewrite dropped, net of the
// snapshot it added.
func (r *CheckpointResult) TruncatedBytes() int64 {
	if r.LogBytesBefore > r.LogBytesAfter {
		return r.LogBytesBefore - r.LogBytesAfter
	}
	return 0
}

// Checkpoint writes a consistent checkpoint at cut snapTS into the log and
// compacts it, in one rewrite. entries hold the latest committed version of
// every key at the cut; the caller guarantees that every transaction with
// commitTS <= snapTS has fully finished and that its writes are contained in
// the entries (the engine derives both from the GC watermark). Concurrent
// commits are safe: their records carry commit timestamps above the cut and
// stay in the log. Checkpoints must not overlap (the engine serializes
// them); an overlapping one fails.
func (m *Manager) Checkpoint(snapTS uint64, entries []SnapshotEntry) (*CheckpointResult, error) {
	if err := m.Err(); err != nil {
		return nil, err
	}
	// Seal the open epoch: every finished transaction's record is ahead of
	// the seal in the appender's queue, so it is in the log when the rewrite
	// reads it, and the cut drops it.
	if err := m.flushEpoch(); err != nil {
		return nil, err
	}
	// The log holds an epoch marker at or above the durable frontier, so
	// compaction may drop every marker below it.
	c := compaction{cut: snapTS, frontier: m.DurableEpoch()}
	res := &CheckpointResult{SnapshotTS: snapTS, SnapshotKeys: len(entries)}
	prefix := func(add func(string, []byte) error) error {
		if err := add(cutKey, binary.LittleEndian.AppendUint64(nil, snapTS)); err != nil {
			return err
		}
		for _, e := range entries {
			rec, err := snapshotRecord(e)
			if err != nil {
				return err
			}
			res.SnapshotBytes += int64(len(rec))
			if err := add(txnKey, rec); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	if res.LogBytesBefore, res.LogBytesAfter, err = m.st.Rewrite(prefix, c.keep); err != nil {
		return nil, err
	}
	return res, nil
}

// snapshotRecord encodes one snapshot entry as the transaction record of a
// transaction of id 0 and epoch 0 that wrote it at its commit timestamp.
func snapshotRecord(e SnapshotEntry) ([]byte, error) {
	rec, err := encodeRecord(0, 1, func(int) (core.Key, []byte) { return e.Key, e.Value })
	if err == nil {
		binary.LittleEndian.PutUint64(rec[8:16], e.CommitTS)
	}
	return rec, err
}

// compaction is what one log rewrite drops, each record by its own content.
// A checkpoint drops the transaction and snapshot records its cut covers
// and the previous checkpoint's cut record, which its own replaces. Open's
// discard rewrite (unsealed) drops the transaction records of epochs past
// the frontier instead and keeps the checkpoint. Both drop the epoch markers
// below frontier; the newest survives, since the log holds one at or above
// it.
type compaction struct {
	cut      uint64 // transaction records with commitTS <= cut
	unsealed bool   // Open's discard: those with epoch > frontier instead
	frontier uint64 // epoch markers below it
}

func (c compaction) keep(key string, value []byte) bool {
	le := binary.LittleEndian
	switch {
	case key == txnKey && len(value) >= recHeader && c.unsealed:
		return le.Uint64(value[16:]) <= c.frontier
	case key == txnKey && len(value) >= recHeader:
		return le.Uint64(value[8:]) > c.cut
	case key == epochKey && len(value) == 8:
		return le.Uint64(value) >= c.frontier
	case key == cutKey:
		return c.unsealed
	}
	return true // undecodable: kept as is, recovery reports it
}
