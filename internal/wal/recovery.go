package wal

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/core"
)

// RecoveredWrite is one surviving committed write.
type RecoveredWrite struct {
	Key      core.Key
	Value    []byte
	CommitTS uint64
}

// RecoveredState is the outcome of recovery: the latest committed version of
// every key, and the highest commit timestamp observed (the oracle must be
// advanced past it).
type RecoveredState struct {
	Writes []RecoveredWrite
	MaxTS  uint64
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

// Recover performs the three-step recovery procedure of §4.5.4, extended
// with checkpoint support:
//
//  0. load the newest complete checkpoint snapshot, if one was published
//     (manifest + per-shard snapshot files): it seeds the latest committed
//     version of every covered key, and only the log tail remains;
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
func Recover(dir string, shards int) (*RecoveredState, error) {
	if shards < 1 {
		shards = 1
	}
	out := &RecoveredState{}
	latest := map[core.Key]RecoveredWrite{}

	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if man != nil {
		if man.Shards != shards {
			return nil, fmt.Errorf("wal: checkpoint has %d shards, recovering %d", man.Shards, shards)
		}
		for i := 0; i < shards; i++ {
			snapTS, entries, err := readSnapshot(dir, man.ID, i)
			if err != nil {
				return nil, err
			}
			if snapTS != man.SnapTS {
				return nil, fmt.Errorf("wal: snapshot %d/%d cut %d != manifest %d", man.ID, i, snapTS, man.SnapTS)
			}
			for _, e := range entries {
				if cur, ok := latest[e.Key]; !ok || e.CommitTS > cur.CommitTS {
					latest[e.Key] = RecoveredWrite(e)
				}
				if e.CommitTS > out.MaxTS {
					out.MaxTS = e.CommitTS
				}
				out.SnapshotKeys++
			}
		}
		out.SnapshotTS = man.SnapTS
		if man.SnapTS > out.MaxTS {
			out.MaxTS = man.SnapTS
		}
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
		t := txns[id]
		if t == nil {
			t = &txnInfo{epochOK: true}
			txns[id] = t
		}
		return t
	}

	st, err := openLog(dir)
	if err != nil {
		return nil, err
	}
	var frontier uint64
	if b := st.Get(epochKey); len(b) == 8 {
		frontier = binary.LittleEndian.Uint64(b)
	}
	if man != nil {
		// The checkpoint frontier marker is staged through the appender
		// and fsynced BEFORE the manifest is published, so a manifest
		// always implies a marker at least as new. A log behind the
		// manifest means the two come from different histories (outside
		// interference, mixed restores) — recovering would silently drop
		// the compacted prefix.
		var id uint64
		if b := st.Get(ckKey); len(b) == 16 {
			id = binary.LittleEndian.Uint64(b[0:8])
		}
		if id < man.ID {
			//lint:allow syncerr -- read-only store being abandoned; the frontier-mismatch error below is the diagnosis
			st.Close()
			return nil, fmt.Errorf("wal: log's checkpoint frontier marker %d is behind manifest %d (0 = no marker)", id, man.ID)
		}
	}
	err = st.ForEach(func(key string, value []byte) error {
		if !strings.HasPrefix(key, batchPrefix) {
			return nil
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
				if p.epoch > frontier {
					t.epochOK = false
				}
			case recCommit:
				if len(e.payload) < 24 {
					continue
				}
				out.Replayed++
				t := get(binary.LittleEndian.Uint64(e.payload[0:8]))
				t.commitTS = binary.LittleEndian.Uint64(e.payload[8:16])
				if binary.LittleEndian.Uint64(e.payload[16:24]) > frontier {
					t.epochOK = false
				} else {
					t.committed = true
				}
			}
		}
		return nil
	})
	cerr := st.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}

	for _, t := range txns {
		if !t.committed || !t.epochOK || t.precommits < t.nShards {
			out.Discarded++
			continue
		}
		out.Committed++
		if t.commitTS > out.MaxTS {
			out.MaxTS = t.commitTS
		}
		for _, w := range t.writes {
			if cur, ok := latest[w.Key]; !ok || t.commitTS > cur.CommitTS {
				latest[w.Key] = RecoveredWrite{Key: w.Key, Value: w.Value, CommitTS: t.commitTS}
			}
		}
	}
	for _, w := range latest {
		out.Writes = append(out.Writes, w)
	}
	return out, nil
}
