package loadgen

import (
	"sync"
	"time"
)

// FakeClock is a manually advanced clock for deterministic scheduler tests.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	t  time.Time
	ch chan struct{}
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// SleepUntil implements Clock: it parks the caller until Advance moves the
// clock to or past t.
func (c *FakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	if !c.now.Before(t) {
		c.mu.Unlock()
		return
	}
	w := fakeWaiter{t: t, ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	<-w.ch
}

// Advance moves the clock forward and wakes every sleeper whose deadline
// has been reached.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !c.now.Before(w.t) {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
	c.mu.Unlock()
}

// AdvanceToNextSleeper jumps to the earliest pending deadline and wakes its
// sleeper(s), returning true; false when nobody is sleeping.
func (c *FakeClock) AdvanceToNextSleeper() bool {
	c.mu.Lock()
	if len(c.waiters) == 0 {
		c.mu.Unlock()
		return false
	}
	earliest := c.waiters[0].t
	for _, w := range c.waiters[1:] {
		if w.t.Before(earliest) {
			earliest = w.t
		}
	}
	if earliest.After(c.now) {
		c.now = earliest
	}
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !c.now.Before(w.t) {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
	c.mu.Unlock()
	return true
}

// Sleepers reports how many goroutines are parked in SleepUntil (test
// synchronization helper).
func (c *FakeClock) Sleepers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
