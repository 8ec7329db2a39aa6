package core

import "time"

// Wake is a broadcast that waiters ask for and the next event fires: the
// first waiter makes the channel (Chan) and the next Fire closes and forgets
// it, so while nobody waits there is no channel and an event touches none.
// The lock waits, RP step waits and dependency waits all park on one. The
// caller's own mutex guards a Wake.
type Wake struct{ ch chan struct{} }

// Chan returns the channel the next Fire closes, making it on first use.
func (w *Wake) Chan() <-chan struct{} {
	if w.ch == nil {
		w.ch = make(chan struct{})
	}
	return w.ch
}

// Fire closes and forgets the channel, if a waiter made one, and then
// records the handoff on by, whose own goroutine must be the caller: the
// engine yields the processor when by ends, so the woken waiters run before
// that goroutine starts its next transaction (DESIGN.md "Handoff at
// transaction end").
func (w *Wake) Fire(by *Txn) {
	if w.ch != nil {
		close(w.ch)
		w.ch = nil
		by.handoff = true
	}
}

// Wait is the one blocking wait of the transaction path: lock waits
// (§4.4.1), RP step waits, TSO batch and promise waits (§4.4.4) and the
// commit-time dependency wait (§4.2) all block here, so they share one
// timeout bound and one route to the profiler (§5.3).
//
// It blocks waiter until ready fires and returns nil, or until *deadline
// passes and returns ErrTimeout. A zero *deadline is set to
// now+LockTimeout on the first call that actually blocks, so successive
// waits of one operation share one bound and an operation that never waits
// never reads the clock. When blocker is non-nil the interval is reported
// as one BlockEvent; callers that coalesce several wake-ups into one event
// (lockmgr) pass nil and report for themselves.
//
// Callers must hold no mutex across the call.
func (e *Env) Wait(waiter, blocker *Txn, deadline *time.Time, ready <-chan struct{}) error {
	select {
	case <-ready:
		return nil
	default:
	}
	start := time.Now()
	if deadline.IsZero() {
		*deadline = start.Add(e.LockTimeout)
	}
	remain := deadline.Sub(start)
	if remain <= 0 {
		return ErrTimeout
	}
	var err error
	timer := time.NewTimer(remain)
	select {
	case <-ready:
	case <-timer.C:
		err = ErrTimeout
	}
	timer.Stop()
	if blocker != nil {
		e.Report(waiter, blocker, start, time.Now())
	}
	return err
}

// WaitDeps blocks until every dependency recorded on t has finished,
// enforcing consistent ordering at commit time (the generalization of Callas'
// nexus lock release order, §4.2). It returns ErrCascade if a read-from
// dependency aborted and ErrTimeout if the waits together exceed LockTimeout;
// each wait is reported to the profiler as a blocking event on the
// dependency. One walk over the set, in place, sees every dependency: the
// set is t's own and only t's goroutine adds to it (Txn.AddDep), and that
// goroutine is here, so nothing is recorded while it waits. Transactions
// with no recorded dependencies (every read hit committed history) walk
// nothing.
func (e *Env) WaitDeps(t *Txn) error {
	var deadline time.Time
	for _, d := range t.Deps() {
		if !d.T.Finished() {
			if err := e.Wait(t, d.T, &deadline, d.T.Done()); err != nil {
				return err
			}
		}
		if d.Read && d.T.State() == Aborted {
			return ErrCascade
		}
	}
	return nil
}
