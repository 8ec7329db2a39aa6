// Package loadgen is an open-loop (arrival-rate-driven) load generator for
// the networked front end. Unlike the closed-loop clients in internal/bench
// — which wait for each response before sending the next request, so a slow
// server quietly slows the *offered* load — the pacer here emits arrivals
// on a fixed schedule and measures every transaction's latency from its
// INTENDED send time. A stalled connection therefore accumulates queued
// arrivals whose latencies grow by the backlog, making coordinated omission
// visible in p99/p999 instead of silently excluded.
package loadgen

import "time"

// Clock abstracts time so the scheduler is testable under a fake clock.
type Clock interface {
	Now() time.Time
	// SleepUntil returns at or after t (immediately if t has passed).
	SleepUntil(t time.Time)
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// SleepUntil implements Clock.
func (RealClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
