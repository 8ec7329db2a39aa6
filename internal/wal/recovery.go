package wal

import (
	"encoding/binary"
	"errors"
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
	// MaxTxnID is the largest transaction id in any precommit, commit or
	// abort entry, discarded transactions included: a new transaction
	// reusing one would merge with that transaction's records at the next
	// recovery.
	MaxTxnID uint64
	// Discarded counts transactions dropped by the GCP / 2PC rules
	// (missing precommits, epoch beyond a durable frontier, or missing
	// commit record).
	Discarded int
	Committed int
	// SnapshotTS is the checkpoint cut recovery started from (0 when no
	// checkpoint existed and the whole history was replayed).
	SnapshotTS uint64
	// SnapshotKeys is the number of keys seeded from the checkpoint
	// snapshot.
	SnapshotKeys int
	// Replayed counts the individual log records (precommit and commit,
	// batch entries included) replayed from the log tail. With
	// checkpointing enabled this stays proportional to the post-frontier
	// tail, not to the full history.
	Replayed int
}

// logState is what the one pass over an opened log knows: the recovered
// state, and what Open resumes from.
type logState struct {
	rec      *RecoveredState
	nextSeq  uint64 // past every b/<seq> key
	frontier uint64 // the epoch marker
	ckID     uint64 // the checkpoint id in the ck marker, 0 without one
	// unsealed holds the committed transactions discarded because their
	// commit record lies past the frontier.
	unsealed map[uint64]bool
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
//  1. retrieve the data servers' records from the log;
//  2. reconstruct database state — discard transactions that are missing a
//     precommit record of any participant, whose records fall beyond the
//     durable epoch frontier, or that lack a coordinator commit record;
//     merge the survivors into the snapshot base, keeping the latest
//     committed version of each key (merging is by commit timestamp, so
//     records of snapshot-covered transactions that escaped compaction
//     replay idempotently);
//  3. CC-internal state (indices, version maps, lock tables) is rebuilt by
//     the caller: recovered writes are re-installed as committed history
//     that only the root CC needs to know about.
func scan(dir string, st *kvstore.Store) (*logState, error) {
	le := binary.LittleEndian
	out := &RecoveredState{}
	ls := &logState{rec: out, unsealed: map[uint64]bool{}}
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

	type txnInfo struct {
		precommits int
		nShards    int
		epochOK    bool
		writes     []KV
		commitTS   uint64
		committed  bool
	}
	txns := map[uint64]*txnInfo{}
	get := func(id uint64) *txnInfo {
		out.MaxTxnID = max(out.MaxTxnID, id)
		t := txns[id]
		if t == nil {
			t = &txnInfo{epochOK: true}
			txns[id] = t
		}
		return t
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
			return nil // torn batch: skip
		}
		for _, e := range entries {
			switch e.kind {
			case recPrecommit:
				p, err := decodePrecommit(e.payload)
				if err != nil {
					continue // torn record: skip
				}
				out.Replayed++
				t := get(p.txnID)
				t.precommits++
				t.nShards = p.nShards
				t.writes = append(t.writes, p.writes...)
				if p.epoch > ls.frontier {
					t.epochOK = false
				}
			case recCommit:
				if len(e.payload) < 24 {
					continue
				}
				out.Replayed++
				t := get(le.Uint64(e.payload[0:8]))
				t.commitTS = le.Uint64(e.payload[8:16])
				t.committed = true
				if le.Uint64(e.payload[16:24]) > ls.frontier {
					t.epochOK = false
				}
			case recAbort:
				if len(e.payload) >= 8 {
					out.MaxTxnID = max(out.MaxTxnID, le.Uint64(e.payload))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for id, t := range txns {
		if !t.committed || !t.epochOK || t.precommits < t.nShards {
			out.Discarded++
			if t.committed && !t.epochOK {
				ls.unsealed[id] = true
			}
			continue
		}
		out.Committed++
		out.MaxTS = max(out.MaxTS, t.commitTS)
		for _, w := range t.writes {
			if cur, ok := latest[w.Key]; !ok || t.commitTS > cur.CommitTS {
				latest[w.Key] = RecoveredWrite{Key: w.Key, Value: w.Value, CommitTS: t.commitTS}
			}
		}
	}
	out.Writes = make([]RecoveredWrite, 0, len(latest))
	for _, w := range latest {
		out.Writes = append(out.Writes, w)
	}
	return ls, nil
}
