// Package oracle provides the global timestamp oracle. Tebaldi draws begin
// timestamps, SSI/TSO start timestamps, batch timestamps and commit
// timestamps from one monotonic counter, so every timestamp comparison in
// the system happens in a single domain (the paper uses a centralized
// timestamp server; §4.5.1).
package oracle

import "sync/atomic"

// Oracle is a lock-free monotonic timestamp source implementing core.Oracle.
// The zero value is ready to use; the first timestamp issued is 1.
type Oracle struct {
	counter atomic.Uint64
}

// New returns a fresh oracle.
func New() *Oracle { return &Oracle{} }

// Next returns the next timestamp (strictly increasing, starting at 1).
func (o *Oracle) Next() uint64 { return o.counter.Add(1) }

// Last returns the most recently issued timestamp (0 if none).
func (o *Oracle) Last() uint64 { return o.counter.Load() }

// AdvanceTo raises the counter to at least ts (used by recovery so new
// timestamps never collide with recovered commit timestamps).
func (o *Oracle) AdvanceTo(ts uint64) {
	for {
		cur := o.counter.Load()
		if cur >= ts || o.counter.CompareAndSwap(cur, ts) {
			return
		}
	}
}
