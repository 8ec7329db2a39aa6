package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
// every key, and the highest commit timestamp observed (the oracle, and with
// it the engine's transaction ids, must resume past it).
type RecoveredState struct {
	Writes []RecoveredWrite
	MaxTS  uint64
	// Discarded counts transactions dropped by the GCP rule: their
	// record's epoch is beyond the durable frontier.
	Discarded int
	Committed int
	// SnapshotTS is the cut of the checkpoint the log starts with (0 when
	// no checkpoint existed and the whole history was replayed).
	SnapshotTS uint64
	// SnapshotKeys is the number of snapshot records the log holds: the
	// transaction records of id 0, one per key of the checkpoint.
	SnapshotKeys int
	// Replayed counts the transaction records replayed from the log,
	// discarded ones included — snapshot records are not transactions. With
	// checkpointing enabled this stays proportional to the post-checkpoint
	// tail, not to the full history.
	Replayed int
}

// logState is what the one pass over an opened log knows: the recovered
// state, and what Open resumes from.
type logState struct {
	rec      *RecoveredState
	frontier uint64 // the largest epoch marker
}

// errBatchedFormat names the log format this version cannot read.
var errBatchedFormat = errors.New("wal: " + logName + " holds b/<seq> records of the batched format (one store record per group-commit batch, whose entries may also be precommit/commit/abort records of the two-phase record format); this version writes one store record per transaction and cannot read them")

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
	ls, err := scan(st)
	if err != nil {
		return nil, nil, errors.Join(err, st.Close())
	}
	return st, ls, nil
}

// scan is recovery, extended with checkpoints, in one pass over the log:
//
//  1. retrieve the records in file order. The frontier is the largest epoch
//     marker; a checkpointed log starts with its cut and snapshot records
//     (transaction records of id 0 and epoch 0);
//  2. reconstruct database state — merge every snapshot record and every
//     transaction record whose epoch the frontier covers, keeping the latest
//     committed version of each key, and discard the rest. Merging is by
//     commit timestamp, so order does not matter: a record whose epoch no
//     marker read so far covers is held aside until one does, or discarded
//     at the end. A record of a transaction the snapshot covers, appended
//     after the checkpoint's rewrite, replays idempotently;
//  3. CC-internal state (indices, version maps, lock tables) is rebuilt by
//     the caller: recovered writes are re-installed as committed history
//     that only the root CC needs to know about.
//
// A record that does not decode fails the scan: the store's records are
// checksummed, so it is no torn tail but a format this version cannot read.
func scan(st *kvstore.Store) (*logState, error) {
	le := binary.LittleEndian
	out := &RecoveredState{}
	ls := &logState{rec: out}
	latest := map[core.Key]RecoveredWrite{}
	merge := func(r record) {
		out.MaxTS = max(out.MaxTS, r.commitTS)
		for _, w := range r.writes {
			if cur, ok := latest[w.Key]; !ok || r.commitTS > cur.CommitTS {
				latest[w.Key] = RecoveredWrite{Key: w.Key, Value: bytes.Clone(w.Value), CommitTS: r.commitTS}
			}
		}
	}
	apply := func(r record) {
		out.Committed++
		merge(r)
	}
	var held []record // epoch past every marker read so far; values owned
	err := st.Scan(func(key string, value []byte) error {
		switch {
		case key == txnKey:
			r, err := decodeRecord(value)
			if err != nil {
				return fmt.Errorf("%w (in %s)", err, logName)
			}
			if r.txnID == 0 { // a snapshot record (snapshotRecord)
				out.SnapshotKeys++
				merge(r)
				return nil
			}
			out.Replayed++
			if r.epoch <= ls.frontier {
				apply(r)
			} else {
				r, _ = decodeRecord(bytes.Clone(value)) // Scan reuses value
				held = append(held, r)
			}
		case key == epochKey && len(value) == 8:
			ls.frontier = max(ls.frontier, le.Uint64(value))
			kept := held[:0]
			for _, r := range held {
				if r.epoch <= ls.frontier {
					apply(r)
				} else {
					kept = append(kept, r)
				}
			}
			clear(held[len(kept):])
			held = kept
		case key == cutKey && len(value) == 8:
			out.SnapshotTS = le.Uint64(value)
			out.MaxTS = max(out.MaxTS, out.SnapshotTS)
		case strings.HasPrefix(key, "b/"):
			return errBatchedFormat
		default:
			return fmt.Errorf("wal: %s holds a record under the unknown key %q", logName, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Discarded = len(held)
	out.Writes = make([]RecoveredWrite, 0, len(latest))
	for _, w := range latest {
		out.Writes = append(out.Writes, w)
	}
	return ls, nil
}
