package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Client-side spans. A logical transaction is one trace:
//
//	txn ⊃ attempt ⊃ {engine.begin, engine.body, engine.commit | engine.rollback}
//	                 or {server.begin, server.get, server.put, server.commit}
//	txn ⊃ backoff
//
// Every span is recorded from this package, round the call into the layer;
// nothing inside the program under test is instrumented.
type spanKind uint8

const (
	spanTxn spanKind = iota
	spanAttempt
	spanBackoff
	spanBegin
	spanBody
	spanCommit
	spanRollback
	spanSrvBegin
	spanSrvGet
	spanSrvPut
	spanSrvCommit
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"txn", "attempt", "backoff",
	"engine.begin", "engine.body", "engine.commit", "engine.rollback",
	"server.begin", "server.get", "server.put", "server.commit",
}

type spanRec struct {
	kind       spanKind
	start, end time.Time
}

const (
	sampleEvery    = 64  // one logical transaction in 64 keeps its full span tree
	maxTreesClient = 512 // bound on kept trees per client, so trace.json stays small
)

// spans is one client's trace state: per-name duration sums and counts for
// every traced transaction, plus the sampled span trees. A nil *spans
// records nothing and reads no clock, which is the untraced run.
type spans struct {
	sumNs    [nSpanKinds]int64
	count    [nSpanKinds]uint64
	gapNs    int64 // time between the end of one txn span and the start of the next
	seq      uint64
	sampling bool
	cur      []spanRec
	trees    [][]spanRec
}

func (s *spans) now() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *spans) add(k spanKind, start, end time.Time) {
	if s == nil {
		return
	}
	s.sumNs[k] += int64(end.Sub(start))
	s.count[k]++
	if s.sampling {
		s.cur = append(s.cur, spanRec{k, start, end})
	}
}

// beginTxn opens a trace for the transaction starting at start, the previous
// one having ended at prevEnd, and decides whether it keeps its span tree.
func (s *spans) beginTxn(prevEnd, start time.Time) {
	if s == nil {
		return
	}
	if !prevEnd.IsZero() {
		s.gapNs += int64(start.Sub(prevEnd))
	}
	s.sampling = s.seq%sampleEvery == 0 && len(s.trees) < maxTreesClient
	s.seq++
	s.cur = nil
}

func (s *spans) endTxn(start, end time.Time) {
	if s == nil {
		return
	}
	s.add(spanTxn, start, end)
	if s.sampling {
		s.trees = append(s.trees, s.cur)
	}
}

func (s *spans) merge(o *spans) {
	for k := range s.sumNs {
		s.sumNs[k] += o.sumNs[k]
		s.count[k] += o.count[k]
	}
	s.gapNs += o.gapNs
}

// perTxnUs is the mean time per traced transaction spent in spans of kind k.
func (s *spans) perTxnUs(k spanKind) float64 {
	if s.count[spanTxn] == 0 {
		return 0
	}
	return float64(s.sumNs[k]) / float64(s.count[spanTxn]) / 1e3
}

// perCallUs is the mean duration of one span of kind k.
func (s *spans) perCallUs(k spanKind) float64 {
	if s.count[k] == 0 {
		return 0
	}
	return float64(s.sumNs[k]) / float64(s.count[k]) / 1e3
}

// selfUs is the harness's own time per traced transaction: what a client
// spends between one txn span and the next, drawing the coming transaction
// and book-keeping. Inside a txn span the child spans share their boundary
// timestamps, so they tile it exactly and leave no self time there.
func (s *spans) selfUs() float64 {
	if s.count[spanTxn] == 0 {
		return 0
	}
	return float64(s.gapNs) / float64(s.count[spanTxn]) / 1e3
}

// traceSpan is one span of trace.json. Parent is the id of the enclosing
// span inside the same trace, -1 for the txn span.
type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type traceTree struct {
	TraceID string      `json:"trace_id"`
	Spans   []traceSpan `json:"spans"`
}

// exportTree turns one client's recorded tree (leaves first, then their
// attempt, the txn span last) into explicit ids and parents. Times are
// nanoseconds since the measured window opened.
func exportTree(id string, recs []spanRec, origin time.Time) traceTree {
	t := traceTree{TraceID: id, Spans: make([]traceSpan, len(recs))}
	txnID := len(recs) - 1
	var pendingLeaves []int
	for i, r := range recs {
		sp := traceSpan{ID: i, Name: spanNames[r.kind],
			StartNs: int64(r.start.Sub(origin)), EndNs: int64(r.end.Sub(origin))}
		switch r.kind {
		case spanTxn:
			sp.Parent = -1
		case spanAttempt:
			sp.Parent = txnID
			for _, l := range pendingLeaves {
				t.Spans[l].Parent = i
			}
			pendingLeaves = pendingLeaves[:0]
		case spanBackoff:
			sp.Parent = txnID
		default:
			pendingLeaves = append(pendingLeaves, i)
		}
		t.Spans[i] = sp
	}
	return t
}

// writeTraces writes the sampled span trees of every traced workload.
func writeTraces(dir string, byWorkload map[string][]traceTree) error {
	if len(byWorkload) == 0 {
		return nil
	}
	doc := struct {
		SampleEvery int                    `json:"sample_every"`
		TimeOrigin  string                 `json:"time_origin"`
		Workloads   map[string][]traceTree `json:"workloads"`
	}{sampleEvery, "start of the traced repetition's measured window", byWorkload}
	buf, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), buf, 0o644)
}
