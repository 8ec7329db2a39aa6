package engine

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Tx is a handle on one executing transaction. All methods must be called
// from a single goroutine (transactions are client-driven, §4.5.1). The
// handle stays on the owning goroutine, so storing the transaction pointer
// into it is ownership transfer, not publication.
//
// tebaldi:txnowner
type Tx struct {
	e *Engine
	t *core.Txn
	// id is a stable copy of the transaction id: the underlying Txn may be
	// recycled through the pool once the transaction finishes.
	id       uint64
	finished bool
}

// ID returns the transaction id.
func (tx *Tx) ID() uint64 { return tx.id }

func (tx *Tx) check() error {
	if tx.finished {
		return fmt.Errorf("engine: transaction %d already finished", tx.id)
	}
	return nil
}

// Read returns the value of k as selected by the CC tree (nil when the key
// is absent at the transaction's snapshot). The returned slice must not be
// modified.
//
// The no-conflict path takes the chain mutex exactly once: the
// read-your-own-writes pre-check is skipped entirely until the transaction
// has installed a version somewhere (an owner-goroutine check, no locking),
// and the wait deadline is computed only if a wait actually occurs.
func (tx *Tx) Read(k core.Key) ([]byte, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	t := tx.t
	ch := tx.e.store.Chain(k)

	// Read-your-own-writes fast path. Only transactions that have written
	// can hit it; promises are excluded here exactly as before (a promise
	// version is fulfilled through Write, not read back).
	if t.HasWrites() {
		ch.Lock()
		if v := ch.VersionBy(t); v != nil && !v.Promise {
			val := v.Value
			ch.Unlock()
			return val, nil
		}
		ch.Unlock()
	}

	// Top-down pass: every CC on the path may block or abort.
	for _, n := range t.Path {
		if err := n.CC.PreRead(t, k); err != nil {
			return nil, tx.abortWith(err)
		}
	}

	// Bottom-up pass: the leaf proposes, ancestors amend.
	var deadline time.Time
	for {
		ch.Lock()
		var proposal *core.Version
		var waitFor *core.WaitFor
		var err error
		for i := len(t.Path) - 1; i >= 0; i-- {
			proposal, err = t.Path[i].CC.AmendRead(t, k, ch, proposal)
			if err != nil {
				if w, ok := err.(*core.WaitFor); ok {
					waitFor = w
					break
				}
				ch.Unlock()
				return nil, tx.abortWith(err)
			}
		}
		if waitFor == nil {
			val, ferr := finishRead(t, proposal)
			ch.Unlock()
			if ferr != nil {
				return nil, tx.abortWith(ferr)
			}
			return val, nil
		}
		// The version is not readable yet: either a promised write
		// whose value has not arrived (§4.4.4) or a committing writer
		// whose outcome the snapshot depends on. Wait and retry.
		v := waitFor.V
		ch.Unlock()
		if err := tx.waitVersion(v, &deadline); err != nil {
			return nil, err
		}
	}
}

// finishRead extracts the value from an accepted proposal. It decides on
// ONE load of the writer's state: a pending writer gets the cascading
// read-from dependency, and an aborted writer — its versions stay in the
// chain between MarkAborted and their removal — is a cascade on the spot;
// "not pending" must never be read as "committed". Called with the chain
// lock held and leaves it held; the caller unlocks and turns a non-nil error
// into an abort.
func finishRead(t *core.Txn, proposal *core.Version) ([]byte, error) {
	if proposal == nil {
		return nil, nil
	}
	switch proposal.Writer.State() {
	case core.Aborted:
		return nil, core.ErrCascade
	case core.Active:
		// Read-from an uncommitted version: record the dependency while
		// the chain is locked (AddDep ignores the transaction's own
		// version and re-checks the state, so an abort of the writer
		// cannot slip in between).
		if err := t.AddDep(proposal.Writer, true); err != nil {
			return nil, err
		}
	}
	return proposal.Value, nil
}

// waitVersion blocks until v becomes readable (promise fulfilled or writer
// finished), within the Read's one deadline.
func (tx *Tx) waitVersion(v *core.Version, deadline *time.Time) error {
	ready := v.Ready()
	if ready == nil {
		ready = v.Writer.Done()
	}
	if err := tx.e.env.Wait(tx.t, v.Writer, deadline, ready); err != nil {
		return tx.abortWith(err)
	}
	return nil
}

// Write installs (or overwrites) the transaction's version of k.
func (tx *Tx) Write(k core.Key, value []byte) error {
	if err := tx.check(); err != nil {
		return err
	}
	t := tx.t

	for _, n := range t.Path {
		if err := n.CC.PreWrite(t, k); err != nil {
			return tx.abortWith(err)
		}
	}

	ch := tx.e.store.Chain(k)
	grew := 0
	ch.Lock()
	v := ch.VersionBy(t)
	switch {
	case v != nil && v.Promise:
		// Fulfil the promise declared at start; readers waiting on
		// it wake up with the value.
		v.Fulfill(value)
		t.AddWrite(ch, v)
	case v != nil:
		// Second write of the same key: overwrite in place.
		v.Value = value
		ch.Unlock()
		return nil
	default:
		v = &core.Version{Writer: t, Value: value}
		grew = ch.Install(v)
		t.AddWrite(ch, v)
	}
	// Bottom-up pass: conflict checks and ordering metadata.
	for i := len(t.Path) - 1; i >= 0; i-- {
		if err := t.Path[i].CC.PostWrite(t, k, ch, v); err != nil {
			ch.Unlock()
			return tx.abortWith(err)
		}
	}
	ch.Unlock()
	if grew > 1 {
		// The chain now holds history; flag it for the incremental
		// collector. Outside the chain lock: MarkGC takes the storage
		// shard mutex, which must never nest inside a chain mutex.
		tx.e.store.MarkGC(ch)
	}
	return nil
}

// promiser is implemented by CC mechanisms supporting declared writes.
type promiser interface {
	Promise(t *core.Txn, ch *core.Chain)
}

// Promise declares keys the transaction will write (TSO promises, §4.4.4).
// Must be called before the first operation on those keys.
func (tx *Tx) Promise(keys ...core.Key) error {
	if err := tx.check(); err != nil {
		return err
	}
	for _, k := range keys {
		ch := tx.e.store.Chain(k)
		for _, n := range tx.t.Path {
			if p, ok := n.CC.(promiser); ok {
				ch.Lock()
				p.Promise(tx.t, ch)
				ch.Unlock()
			}
		}
		if ch.Len() > 1 {
			tx.e.store.MarkGC(ch)
		}
	}
	return nil
}

// Commit runs validation, the consistent-ordering dependency wait, the
// durability protocol, and the chained leaf-to-root commit phase.
func (tx *Tx) Commit() error {
	if err := tx.check(); err != nil {
		return err
	}
	t := tx.t

	// Consistent ordering (§4.2): wait for every recorded dependency to
	// commit; cascade if a read-from dependency aborted. This runs BEFORE
	// validation so that validation-time conflict checks (SSI's read-set
	// rescan) are separated from the commit point only by microseconds,
	// not by a potentially long dependency wait.
	if err := tx.e.env.WaitDeps(t); err != nil {
		return tx.abortWith(err)
	}

	// Validation phase, top-down.
	for _, n := range t.Path {
		if err := n.CC.Validate(t); err != nil {
			return tx.abortWith(err)
		}
	}

	// The commit point, and with it the durability protocol (§4.5.4): a
	// writing transaction's one log record is staged in the same exclusive
	// section of the log as its commit point, so any transaction that saw
	// its writes — possible only after the commit point — stages behind it.
	// Staging is asynchronous: records from concurrent committers coalesce
	// into one append+flush per appender turn, so the log never serializes
	// the commit path; under SyncCommit the wait happens on the ticket,
	// below, on the whole batch's single fsync.
	var ticket *wal.Ticket
	if tx.e.walMgr != nil && t.HasWrites() {
		var err error
		ticket, err = tx.e.walMgr.Stage(t.ID, t.Writes(), func() uint64 {
			return t.MarkCommittedNext(tx.e.oracle)
		})
		if err != nil {
			// The log is poisoned or closed, or the record is too large
			// for it, and the commit point never ran: the transaction
			// aborts cleanly, and retrying cannot help. Only the first
			// two are a failure of the log.
			if !errors.Is(err, wal.ErrTooLarge) {
				err = fmt.Errorf("%w: %v", core.ErrDurability, err)
			}
			return tx.abortWith(err)
		}
	} else {
		t.MarkCommittedNext(tx.e.oracle)
	}
	// From here the transaction is committed in memory, and other
	// transactions may already depend on it; a log failure can no longer
	// abort it, only withhold the commit notification.
	if h := tx.e.opts.afterCommitPoint; h != nil {
		h()
	}

	// Commit phase, chained leaf -> root, uninterrupted.
	for i := len(t.Path) - 1; i >= 0; i-- {
		t.Path[i].CC.Commit(t)
	}
	tx.e.unregister(t)

	// Synchronous durability: block until the group-commit batch holding
	// this transaction's record is flushed — AFTER the CC tree released
	// its state, so the log wait never throttles concurrency control
	// (committed-but-not-yet-durable transactions are indistinguishable
	// from durable ones to the CC mechanisms, §4.5.4). Only the client's
	// commit notification is delayed to coincide with the durable
	// notification.
	var logErr error
	if ticket != nil && tx.e.walMgr.Synchronous() {
		logErr = ticket.Wait()
	}
	tx.e.stats.recordCommit(t)
	tx.finished = true
	handoff := t.Handoff()
	// Recycle after the last engine-side read of t. PutTxn refuses
	// transactions whose pointer escaped (see core.Txn's reclamation rule).
	core.PutTxn(t)
	tx.handOff(handoff)
	if logErr != nil {
		// Fail stop: the log lost this transaction's record, so the
		// client is not told "committed". The WAL batch
		// observer already counted the failed flush into stats.walErrors.
		return fmt.Errorf("%w: %v", core.ErrDurability, logErr)
	}
	return nil
}

// Rollback aborts the transaction. cause is recorded in the abort stats
// (nil means user abort).
func (tx *Tx) Rollback(cause error) {
	if tx.finished {
		return
	}
	if cause == nil {
		cause = core.ErrUserAbort
	}
	tx.abortWith(cause)
}

// abortWith finishes the transaction on its abort path and returns the
// (wrapped) cause. It is the one place a transaction becomes Aborted: only
// the owner goroutine ends its transaction.
func (tx *Tx) abortWith(cause error) error {
	if tx.finished {
		return cause
	}
	tx.finished = true
	t := tx.t
	t.MarkAborted()
	// Remove installed versions so no new reader observes them; existing
	// readers cascade via their read-from dependencies. The write list is
	// t's own and nothing in the loop adds to it, so it is walked in place.
	for _, w := range t.Writes() {
		w.Chain.Lock()
		w.Chain.Remove(w.V)
		w.Chain.Unlock()
	}
	// Abort phase, leaf -> root.
	for i := len(t.Path) - 1; i >= 0; i-- {
		t.Path[i].CC.Abort(t)
	}
	tx.e.unregister(t)
	tx.e.stats.recordAbort(t, cause)
	handoff := t.Handoff()
	core.PutTxn(t)
	tx.handOff(handoff)
	return cause
}

// handOff yields the processor if the ended transaction woke a waiter. Go
// runs a goroutine woken by a channel close in its waker's run slot, where it
// waits until the waker blocks or is preempted (up to 10 ms); the waker is a
// client that starts its next transaction at once. Yielding here, holding
// nothing, lets the woken lock, step and dependency waiters run first.
// Yielding mid-transaction, at the wake itself, bought no more and cost more
// switches; yielding when nobody was woken raised the median latency.
func (tx *Tx) handOff(woke bool) {
	if woke {
		tx.e.stats.handoffs.Add(1)
		runtime.Gosched()
	}
}
