package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kvstore"
)

// RecoveredWrite is one surviving committed write.
type RecoveredWrite struct {
	Key      core.Key
	Value    []byte
	CommitTS uint64
}

// RecoveredState is the outcome of recovery: the latest committed version of
// every key, and the highest commit timestamp and transaction id observed
// (the oracle and the transaction ids must resume past them).
type RecoveredState struct {
	Writes []RecoveredWrite
	MaxTS  uint64
	// MaxTxnID is the largest transaction id in any record, discarded
	// ones included: transaction ids stay unique across the log's lives.
	MaxTxnID uint64
	// Discarded counts transactions dropped by the GCP rule: their
	// record's epoch is beyond the durable frontier.
	Discarded int
	Committed int
	// SnapshotTS is the checkpoint cut recovery started from (0 when no
	// checkpoint existed and the whole history was replayed).
	SnapshotTS uint64
	// SnapshotKeys is the number of keys seeded from the checkpoint
	// snapshot.
	SnapshotKeys int
	// Replayed counts the transaction records replayed from the log tail,
	// discarded ones included. With checkpointing enabled this stays
	// proportional to the post-checkpoint tail, not to the full history.
	Replayed int
}

// logState is what the one pass over an opened log knows: the recovered
// state, and what Open resumes from.
type logState struct {
	rec      *RecoveredState
	nextSeq  uint64 // past every b/<seq> key
	frontier uint64 // the epoch marker
	ckID     uint64 // the checkpoint id in the ck marker, 0 without one
}

// Recover performs the three-step recovery procedure of §4.5.4 on dir's log
// and closes it again: Open without the Manager, for tests and tools.
func Recover(dir string) (*RecoveredState, error) {
	st, ls, err := load(dir)
	if err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return ls.rec, nil
}

// load opens dir's log and scans it once.
func load(dir string) (*kvstore.Store, *logState, error) {
	st, err := openLog(dir)
	if err != nil {
		return nil, nil, err
	}
	ls, err := scan(dir, st)
	if err != nil {
		return nil, nil, errors.Join(err, st.Close())
	}
	return st, ls, nil
}

// scan is recovery, extended with checkpoints:
//
//  0. if the log holds a ck marker, load the snapshot it names: it seeds the
//     latest committed version of every covered key, and only the log tail
//     remains;
//  1. retrieve the transaction records from the log;
//  2. reconstruct database state — discard records whose epoch lies beyond
//     the durable frontier, and merge the rest into the snapshot base,
//     keeping the latest committed version of each key (merging is by commit
//     timestamp, so records of snapshot-covered transactions that escaped
//     compaction replay idempotently);
//  3. CC-internal state (indices, version maps, lock tables) is rebuilt by
//     the caller: recovered writes are re-installed as committed history
//     that only the root CC needs to know about.
//
// A batch that does not decode fails the scan: the store's records are
// checksummed, so it is no torn tail but a format this version cannot read.
func scan(dir string, st *kvstore.Store) (*logState, error) {
	le := binary.LittleEndian
	out := &RecoveredState{}
	ls := &logState{rec: out}
	latest := map[core.Key]RecoveredWrite{}

	if b := st.Get(epochKey); len(b) == 8 {
		ls.frontier = le.Uint64(b)
	}
	if b := st.Get(ckKey); len(b) == 16 {
		ls.ckID, out.SnapshotTS = le.Uint64(b[0:8]), le.Uint64(b[8:16])
		entries, err := readSnapshot(dir, ls.ckID, out.SnapshotTS)
		if err != nil {
			return nil, err
		}
		out.MaxTS = out.SnapshotTS
		for _, e := range entries {
			latest[e.Key] = RecoveredWrite(e)
			out.MaxTS = max(out.MaxTS, e.CommitTS)
		}
		out.SnapshotKeys = len(entries)
	}

	err := st.ForEach(func(key string, value []byte) error {
		seq, ok := strings.CutPrefix(key, batchPrefix)
		if !ok {
			return nil
		}
		if n, err := strconv.ParseUint(seq, 10, 64); err == nil && n >= ls.nextSeq {
			// b/<seq> keys are latest-wins in the kvstore: a restarted
			// sequence would overwrite earlier batches.
			ls.nextSeq = n + 1
		}
		entries, err := decodeBatch(value)
		if err != nil {
			return fmt.Errorf("%w (in %s of %s)", err, key, logName)
		}
		for _, e := range entries {
			r, err := decodeRecord(e.payload)
			if err != nil {
				return fmt.Errorf("%w (in %s of %s)", err, key, logName)
			}
			out.Replayed++
			out.MaxTxnID = max(out.MaxTxnID, r.txnID)
			if r.epoch > ls.frontier {
				out.Discarded++
				continue
			}
			out.Committed++
			out.MaxTS = max(out.MaxTS, r.commitTS)
			for _, w := range r.writes {
				if cur, ok := latest[w.Key]; !ok || r.commitTS > cur.CommitTS {
					v := make([]byte, len(w.Value))
					copy(v, w.Value)
					latest[w.Key] = RecoveredWrite{Key: w.Key, Value: v, CommitTS: r.commitTS}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Writes = make([]RecoveredWrite, 0, len(latest))
	for _, w := range latest {
		out.Writes = append(out.Writes, w)
	}
	return ls, nil
}
