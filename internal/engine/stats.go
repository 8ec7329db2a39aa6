package engine

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Stats holds engine-wide counters. All fields are updated atomically; use
// Snapshot for consistent windows.
type Stats struct {
	commits       atomic.Uint64
	aborts        atomic.Uint64
	abortTimeout  atomic.Uint64
	abortConflict atomic.Uint64
	abortPivot    atomic.Uint64
	abortCascade  atomic.Uint64
	walErrors     atomic.Uint64
	// handoffs counts transactions that woke a waiter and so yielded the
	// processor when they ended (DESIGN.md "Handoff at transaction end").
	handoffs atomic.Uint64

	// Group-commit pipeline counters (fed by the WAL batch observer):
	// batches flushed, records coalesced into them, and cumulative
	// append+flush latency.
	walBatches      atomic.Uint64
	walBatchRecords atomic.Uint64
	walFlushNs      atomic.Uint64

	// Checkpoint / recovery counters: checkpoints completed, last
	// snapshot's size, cumulative log bytes dropped by compaction, failed
	// checkpoint attempts, and — set once at Recover — how many log
	// records the last recovery replayed (with checkpointing, the
	// post-checkpoint tail only).
	checkpoints      atomic.Uint64
	checkpointErrors atomic.Uint64
	ckSnapshotBytes  atomic.Uint64
	ckTruncatedBytes atomic.Uint64
	recoveryReplayed atomic.Uint64

	// perType holds the counters of every registered transaction type, made
	// by the engine's open before it is shared and never written again, so
	// commits and aborts read it without a lock. Every type that can run has
	// a Spec: building a tree refuses a placed type without one.
	perType map[string]*TypeStats
}

// TypeStats aggregates per-transaction-type results.
type TypeStats struct {
	Commits   atomic.Uint64
	Aborts    atomic.Uint64
	LatencyNs atomic.Uint64 // sum of commit latencies
}

// register makes the counters of the registered types. Called once, before
// the Stats is shared.
func (s *Stats) register(specs map[string]*core.Spec) {
	s.perType = make(map[string]*TypeStats, len(specs))
	for typ := range specs {
		s.perType[typ] = &TypeStats{}
	}
}

func (s *Stats) recordCommit(t *core.Txn) {
	s.commits.Add(1)
	ts := s.perType[t.Type]
	ts.Commits.Add(1)
	ts.LatencyNs.Add(uint64(time.Since(t.Start).Nanoseconds()))
}

func (s *Stats) recordAbort(t *core.Txn, cause error) {
	s.aborts.Add(1)
	s.perType[t.Type].Aborts.Add(1)
	switch {
	case errors.Is(cause, core.ErrTimeout):
		s.abortTimeout.Add(1)
	case errors.Is(cause, core.ErrPivot):
		s.abortPivot.Add(1)
	case errors.Is(cause, core.ErrCascade):
		s.abortCascade.Add(1)
	case errors.Is(cause, core.ErrConflict):
		s.abortConflict.Add(1)
	}
}

// recordCheckpoint tallies one checkpoint attempt.
func (s *Stats) recordCheckpoint(res *wal.CheckpointResult, err error) {
	if err != nil {
		s.checkpointErrors.Add(1)
		return
	}
	s.checkpoints.Add(1)
	s.ckSnapshotBytes.Store(uint64(res.SnapshotBytes))
	s.ckTruncatedBytes.Add(uint64(res.TruncatedBytes()))
}

// recordRecovery publishes the last recovery's replay counters.
func (s *Stats) recordRecovery(st *wal.RecoveredState) {
	s.recoveryReplayed.Store(uint64(st.Replayed))
}

// recordWalBatch is the WAL group-commit observer: one coalesced batch of
// `records` log records was appended (and flushed, under SyncCommit) in d.
func (s *Stats) recordWalBatch(records int, d time.Duration, err error) {
	s.walBatches.Add(1)
	s.walBatchRecords.Add(uint64(records))
	s.walFlushNs.Add(uint64(d.Nanoseconds()))
	if err != nil {
		s.walErrors.Add(1)
	}
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	At            time.Time
	Commits       uint64
	Aborts        uint64
	AbortTimeout  uint64
	AbortConflict uint64
	AbortPivot    uint64
	AbortCascade  uint64
	// Handoffs counts the transactions that woke a waiter and yielded the
	// processor when they ended.
	Handoffs uint64
	// WAL group-commit pipeline counters (zero when durability is off). A
	// record is one transaction.
	WalBatches      uint64
	WalBatchRecords uint64
	WalFlushNs      uint64
	WalErrors       uint64
	// Checkpoint / recovery counters (zero when durability is off or no
	// checkpoint ran). RecoveryReplayed is the number of transaction
	// records the last Recover replayed — with checkpointing, the
	// post-checkpoint tail.
	Checkpoints              uint64
	CheckpointErrors         uint64
	CheckpointSnapshotBytes  uint64
	CheckpointTruncatedBytes uint64
	RecoveryReplayed         uint64
	PerType                  map[string]TypeSnapshot
}

// TypeSnapshot is the per-type portion of a Snapshot.
type TypeSnapshot struct {
	Commits   uint64
	Aborts    uint64
	LatencyNs uint64
}

// Snapshot captures the current counters.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		At:                       time.Now(),
		Commits:                  s.commits.Load(),
		Aborts:                   s.aborts.Load(),
		AbortTimeout:             s.abortTimeout.Load(),
		AbortConflict:            s.abortConflict.Load(),
		AbortPivot:               s.abortPivot.Load(),
		AbortCascade:             s.abortCascade.Load(),
		Handoffs:                 s.handoffs.Load(),
		WalBatches:               s.walBatches.Load(),
		WalBatchRecords:          s.walBatchRecords.Load(),
		WalFlushNs:               s.walFlushNs.Load(),
		WalErrors:                s.walErrors.Load(),
		Checkpoints:              s.checkpoints.Load(),
		CheckpointErrors:         s.checkpointErrors.Load(),
		CheckpointSnapshotBytes:  s.ckSnapshotBytes.Load(),
		CheckpointTruncatedBytes: s.ckTruncatedBytes.Load(),
		RecoveryReplayed:         s.recoveryReplayed.Load(),
		PerType:                  map[string]TypeSnapshot{},
	}
	// A type appears once it has committed or aborted.
	for typ, ts := range s.perType {
		t := TypeSnapshot{
			Commits:   ts.Commits.Load(),
			Aborts:    ts.Aborts.Load(),
			LatencyNs: ts.LatencyNs.Load(),
		}
		if t.Commits > 0 || t.Aborts > 0 {
			snap.PerType[typ] = t
		}
	}
	return snap
}

// Window summarizes the interval between two snapshots.
type Window struct {
	Duration   time.Duration
	Commits    uint64
	Aborts     uint64
	Throughput float64 // committed txn/sec
	AbortRate  float64 // aborts / (commits+aborts)
	// WalBatches is the number of group-commit batches flushed in the
	// window; WalMeanBatch is the mean records coalesced per batch and
	// WalMeanFlush the mean append+flush latency (both zero when
	// durability is off or no batch flushed).
	WalBatches   uint64
	WalMeanBatch float64
	WalMeanFlush time.Duration
	PerType      map[string]WindowType
}

// WindowType is the per-type portion of a Window.
type WindowType struct {
	Commits    uint64
	Aborts     uint64
	Throughput float64
	// MeanLatency is the mean commit latency over the window.
	MeanLatency time.Duration
}

// Since computes the window from an earlier snapshot to now.
func (s *Stats) Since(prev Snapshot) Window {
	cur := s.Snapshot()
	d := cur.At.Sub(prev.At)
	if d <= 0 {
		d = time.Nanosecond
	}
	w := Window{
		Duration: d,
		Commits:  cur.Commits - prev.Commits,
		Aborts:   cur.Aborts - prev.Aborts,
		PerType:  map[string]WindowType{},
	}
	w.Throughput = float64(w.Commits) / d.Seconds()
	if total := w.Commits + w.Aborts; total > 0 {
		w.AbortRate = float64(w.Aborts) / float64(total)
	}
	w.WalBatches = cur.WalBatches - prev.WalBatches
	if w.WalBatches > 0 {
		w.WalMeanBatch = float64(cur.WalBatchRecords-prev.WalBatchRecords) / float64(w.WalBatches)
		w.WalMeanFlush = time.Duration((cur.WalFlushNs - prev.WalFlushNs) / w.WalBatches)
	}
	for typ, c := range cur.PerType {
		p := prev.PerType[typ]
		wt := WindowType{
			Commits: c.Commits - p.Commits,
			Aborts:  c.Aborts - p.Aborts,
		}
		wt.Throughput = float64(wt.Commits) / d.Seconds()
		if wt.Commits > 0 {
			wt.MeanLatency = time.Duration((c.LatencyNs - p.LatencyNs) / wt.Commits)
		}
		w.PerType[typ] = wt
	}
	return w
}
