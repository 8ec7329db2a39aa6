// Package profiler implements Tebaldi's performance analysis stage (§5.3):
// a sampling module that collects data-contention blocking events from all
// CC mechanisms, and an analyzer that aggregates them into conflict-edge
// scores with nested-waiting attribution (§5.3.2), identifying the bottleneck
// conflict edge — the pair of transaction types whose contention limits the
// workload.
//
// Unlike the latency-based technique of Callas (§5.3.1), this profiler needs
// no control over the workload's request rate and reports exact conflict
// edges, not just "slow transaction types" — it tracks the cascading effects
// of contention: if A waits for B while B waits for C, the nested time is
// charged to the B<-C edge, not to A<-B.
package profiler

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

const shards = 16

// Profiler collects blocking events. It implements core.BlockReporter.
// Collection is windowed: Window() drains the buffers for analysis.
type Profiler struct {
	enabled bool // set before use; reads are racy-but-safe (bool)
	bufs    [shards]buf
}

type buf struct {
	mu     sync.Mutex
	events []core.BlockEvent
}

// New creates a profiler; enabled controls whether events are recorded.
func New(enabled bool) *Profiler {
	return &Profiler{enabled: enabled}
}

// Enabled reports whether collection is on.
func (p *Profiler) Enabled() bool { return p.enabled }

// ReportBlock implements core.BlockReporter.
func (p *Profiler) ReportBlock(ev core.BlockEvent) {
	if !p.enabled {
		return
	}
	b := &p.bufs[ev.BlockedID%shards]
	b.mu.Lock()
	b.events = append(b.events, ev)
	b.mu.Unlock()
}

// Window drains and returns all collected events.
func (p *Profiler) Window() []core.BlockEvent {
	var out []core.BlockEvent
	for i := range p.bufs {
		b := &p.bufs[i]
		b.mu.Lock()
		out = append(out, b.events...)
		b.events = nil
		b.mu.Unlock()
	}
	return out
}

// Edge is an unordered pair of transaction types (a conflict edge in the
// workload). A == B for self-conflicts.
type Edge struct{ A, B string }

// MakeEdge normalizes the pair ordering.
func MakeEdge(a, b string) Edge {
	if b < a {
		a, b = b, a
	}
	return Edge{A: a, B: b}
}

// Scores aggregates blocking events into per-conflict-edge scores: the total
// blocked time attributable to each pair of transaction types, with nested
// waiting re-attributed to the inner conflict (§5.3.2, Figure 5.6).
func Scores(events []core.BlockEvent) map[Edge]time.Duration {
	// Index each transaction's own blocked intervals.
	type span struct {
		start, end  time.Time
		blockerID   uint64
		blockerType string
	}
	blockedBy := make(map[uint64][]span)
	for _, ev := range events {
		blockedBy[ev.BlockedID] = append(blockedBy[ev.BlockedID], span{
			start: ev.Start, end: ev.End,
			blockerID: ev.BlockerID, blockerType: ev.BlockerType,
		})
	}
	for id := range blockedBy {
		s := blockedBy[id]
		sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
		blockedBy[id] = s
	}

	// Each event (A waited for B over I) contributes |I| minus the time B
	// was itself blocked within I: the nested portion belongs to B's own
	// conflict, which is charged by B's own events (Figure 5.6 — the
	// 6ms t2 spends blocked by t3 inside t1's wait counts toward
	// score(T3,T2) via t2's direct event, not toward score(T2,T1)).
	scores := make(map[Edge]time.Duration)
	for _, ev := range events {
		d := ev.End.Sub(ev.Start)
		if d <= 0 {
			continue
		}
		for _, inner := range blockedBy[ev.BlockerID] {
			is, ie := inner.start, inner.end
			if is.Before(ev.Start) {
				is = ev.Start
			}
			if ie.After(ev.End) {
				ie = ev.End
			}
			if ie.After(is) {
				d -= ie.Sub(is)
			}
		}
		if d > 0 {
			scores[MakeEdge(ev.BlockerType, ev.BlockedType)] += d
		}
	}
	return scores
}

// Bottleneck returns the conflict edge with the highest score, its score,
// and whether any contention was observed at all.
func Bottleneck(scores map[Edge]time.Duration) (Edge, time.Duration, bool) {
	var best Edge
	var bestScore time.Duration
	found := false
	// Deterministic tie-break by edge name.
	edges := make([]Edge, 0, len(scores))
	for e := range scores {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	for _, e := range edges {
		if s := scores[e]; s > bestScore {
			best, bestScore, found = e, s, true
		}
	}
	return best, bestScore, found
}
