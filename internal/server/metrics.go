package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
)

// Metrics are the server-side counters, exported (with the engine, WAL and
// checkpoint counters) at the /metrics endpoint in the Prometheus text
// exposition format. All fields are atomics; gauges use Int64.
type Metrics struct {
	ConnsAccepted    atomic.Uint64
	ConnsActive      atomic.Int64
	SessionsActive   atomic.Int64
	FramesRead       atomic.Uint64
	FramesWritten    atomic.Uint64
	ProtocolErrors   atomic.Uint64
	TxnBegins        atomic.Uint64
	TxnCommits       atomic.Uint64
	TxnAborts        atomic.Uint64
	DisconnectAborts atomic.Uint64
	Reads            atomic.Uint64
	Writes           atomic.Uint64
}

// Metrics exposes the server counters (tests and embedding binaries).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// metricPoint is one exposition line: name, type, help, value.
type metricPoint struct {
	name  string
	typ   string // "counter" or "gauge"
	help  string
	value float64
}

// collect gathers every exported series at one instant.
func (s *Server) collect() []metricPoint {
	m := &s.metrics
	pts := []metricPoint{
		{"tebaldi_server_connections_total", "counter", "TCP connections accepted", float64(m.ConnsAccepted.Load())},
		{"tebaldi_server_connections_active", "gauge", "currently open connections", float64(m.ConnsActive.Load())},
		{"tebaldi_server_sessions_active", "gauge", "currently open sessions", float64(m.SessionsActive.Load())},
		{"tebaldi_server_frames_read_total", "counter", "protocol frames decoded", float64(m.FramesRead.Load())},
		{"tebaldi_server_frames_written_total", "counter", "protocol frames written", float64(m.FramesWritten.Load())},
		{"tebaldi_server_protocol_errors_total", "counter", "malformed frames and out-of-place requests", float64(m.ProtocolErrors.Load())},
		{"tebaldi_server_txn_begins_total", "counter", "transactions opened over the wire", float64(m.TxnBegins.Load())},
		{"tebaldi_server_txn_commits_total", "counter", "transactions committed over the wire", float64(m.TxnCommits.Load())},
		{"tebaldi_server_txn_aborts_total", "counter", "wire transactions aborted (any cause)", float64(m.TxnAborts.Load())},
		{"tebaldi_server_disconnect_aborts_total", "counter", "transactions rolled back because the client disconnected", float64(m.DisconnectAborts.Load())},
		{"tebaldi_server_reads_total", "counter", "GET operations served", float64(m.Reads.Load())},
		{"tebaldi_server_writes_total", "counter", "PUT operations served", float64(m.Writes.Load())},
		{"tebaldi_server_txns_open", "gauge", "wire transactions currently open", float64(s.txnsOpen.Load())},
	}

	eng := s.db.Engine()
	snap := s.db.Stats().Snapshot()
	walFailed := 0.0
	if w := eng.Wal(); w != nil && w.Err() != nil {
		walFailed = 1
	}
	pts = append(pts,
		metricPoint{"tebaldi_engine_commits_total", "counter", "engine transaction commits", float64(snap.Commits)},
		metricPoint{"tebaldi_engine_aborts_total", "counter", "engine transaction aborts", float64(snap.Aborts)},
		metricPoint{"tebaldi_engine_abort_timeout_total", "counter", "aborts by lock/dependency timeout", float64(snap.AbortTimeout)},
		metricPoint{"tebaldi_engine_abort_conflict_total", "counter", "aborts by data conflict", float64(snap.AbortConflict)},
		metricPoint{"tebaldi_engine_abort_pivot_total", "counter", "aborts by SSI pivot", float64(snap.AbortPivot)},
		metricPoint{"tebaldi_engine_abort_cascade_total", "counter", "cascading aborts", float64(snap.AbortCascade)},
		metricPoint{"tebaldi_engine_handoffs_total", "counter", "transactions that woke a waiter and yielded the processor when they ended", float64(snap.Handoffs)},
		metricPoint{"tebaldi_engine_txns_active", "gauge", "transactions registered in the engine", float64(eng.ActiveTxns())},
		metricPoint{"tebaldi_wal_batches_total", "counter", "group-commit batches flushed", float64(snap.WalBatches)},
		metricPoint{"tebaldi_wal_batch_records_total", "counter", "records coalesced into group-commit batches", float64(snap.WalBatchRecords)},
		metricPoint{"tebaldi_wal_flush_seconds_total", "counter", "cumulative append+flush time", float64(snap.WalFlushNs) / 1e9},
		metricPoint{"tebaldi_wal_errors_total", "counter", "failed WAL batch flushes", float64(snap.WalErrors)},
		metricPoint{"tebaldi_wal_failed", "gauge", "1 once the log has failed: every commit fails with ErrDurability until Recover", walFailed},
		metricPoint{"tebaldi_checkpoints_total", "counter", "checkpoints completed", float64(snap.Checkpoints)},
		metricPoint{"tebaldi_checkpoint_errors_total", "counter", "failed checkpoint attempts", float64(snap.CheckpointErrors)},
		metricPoint{"tebaldi_checkpoint_snapshot_bytes", "gauge", "size of the newest checkpoint snapshot", float64(snap.CheckpointSnapshotBytes)},
		metricPoint{"tebaldi_checkpoint_truncated_bytes_total", "counter", "log bytes reclaimed by compaction", float64(snap.CheckpointTruncatedBytes)},
	)

	types := make([]string, 0, len(snap.PerType))
	for typ := range snap.PerType {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		pts = append(pts, metricPoint{fmt.Sprintf("tebaldi_engine_type_commits_total{type=%q}", typ),
			"counter", "per-type commits", float64(snap.PerType[typ].Commits)})
	}
	for _, typ := range types {
		pts = append(pts, metricPoint{fmt.Sprintf("tebaldi_engine_type_aborts_total{type=%q}", typ),
			"counter", "per-type aborts", float64(snap.PerType[typ].Aborts)})
	}
	return pts
}

// MetricsHandler serves the Prometheus text exposition format:
//
//	# HELP <name> <help>
//	# TYPE <name> <counter|gauge>
//	<name> <value>
//
// Mount it on any mux (cmd/tebaldi-server serves it on its own port).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		seen := map[string]bool{}
		for _, p := range s.collect() {
			// HELP/TYPE take the bare family name (labels stripped),
			// once per family.
			family := p.name
			if i := strings.IndexByte(family, '{'); i >= 0 {
				family = family[:i]
			}
			if !seen[family] {
				seen[family] = true
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", family, p.help, family, p.typ)
			}
			fmt.Fprintf(w, "%s %g\n", p.name, p.value)
		}
	})
}
