package core

import "time"

// CC is the interface every concurrency control mechanism implements to
// participate in Tebaldi's CC tree. The engine drives each transaction
// through four phases (§4.3.1) — start, execution, validation, commit — each
// with a top-down pass (parents constrain children, by blocking or aborting)
// and a bottom-up pass (children inform parents; for reads, ancestors amend
// the read-version proposal).
//
// Concurrency contract:
//
//   - Begin / PreRead / PreWrite / Validate may block (locks, pipeline
//     waits); they run without any chain mutex held.
//   - AmendRead / PostWrite run with the target chain's mutex held and must
//     not block or acquire other chain mutexes.
//   - Commit / Abort must not fail; Commit for all path nodes is invoked
//     leaf->root without interruption after the engine marks the
//     transaction committed.
//
// Every method receives the transaction; per-node protocol state lives in
// t.Slots[node.Depth].
type CC interface {
	// Name identifies the mechanism (for tree rendering and stats).
	Name() string

	// Begin is the start phase: allocate metadata, assign timestamps or
	// batches, install promises.
	Begin(t *Txn) error

	// PreRead is the top-down execution pass for a read: acquire locks,
	// enforce pipeline ordering, or abort.
	PreRead(t *Txn, k Key) error

	// PreWrite is the top-down execution pass for a write.
	PreWrite(t *Txn, k Key) error

	// AmendRead is the bottom-up execution pass for a read: the leaf's CC
	// is called first with proposal == nil and proposes a version; each
	// ancestor accepts the proposal iff its writer is delegated together
	// with the reader (the conflict is a descendant's responsibility) and
	// otherwise substitutes a version chosen by its own rule. Returning
	// (nil, nil) means "key absent at my snapshot".
	AmendRead(t *Txn, k Key, ch *Chain, proposal *Version) (*Version, error)

	// PostWrite is the bottom-up execution pass after installing version
	// v: record ordering metadata, run write-conflict checks (SSI
	// first-updater-wins, TSO read-timestamp rule).
	PostWrite(t *Txn, k Key, ch *Chain, v *Version) error

	// Validate is the validation phase (top-down): decide commitability,
	// possibly waiting for ordering information.
	Validate(t *Txn) error

	// Commit finalizes a committed transaction at this node (release
	// locks, retire batch membership). Called leaf->root.
	Commit(t *Txn)

	// Abort undoes this node's protocol state for an aborted transaction.
	// Called leaf->root; must be safe even for partially-begun
	// transactions.
	Abort(t *Txn)
}

// ReadRecordNeeder is implemented by a mechanism that, nested under a
// lock-based ancestor, needs that ancestor to leave a ReadRec on the chain for
// every read it serves. TSO does: the ancestor orders a reader from outside
// the TSO subtree at its commit, and a TSO writer has to learn that such a
// reader committed above the writer's timestamp (Chain.RecordReader).
type ReadRecordNeeder interface {
	NeedsReadRecords()
}

// Spec is the static description of a transaction type, registered with the
// engine. CC mechanisms with preprocessing (Runtime Pipelining's static
// analysis, TSO's promises, autoconf's read-only classification) consume it.
type Spec struct {
	// Name is the transaction type.
	Name string
	// ReadOnly marks types with no writes (grouped under an empty CC).
	ReadOnly bool
	// Tables lists the tables in the order the transaction accesses them
	// (repeats allowed). Runtime Pipelining derives its table-order graph
	// and pipeline steps from this.
	Tables []string
	// WriteTables is the subset of Tables the transaction may write.
	WriteTables []string
	// InstanceDomain, when > 0, declares that conflicts of this type
	// partition cleanly by Txn.Part over this many instances (e.g. SEATS
	// flights) — enabling the partition-by-instance optimization.
	InstanceDomain int
}

// BlockEvent records one data-contention blocking interval: Blocked waited
// for Blocker from Start to End. The profiler aggregates these into
// conflict-edge scores with nested-waiting attribution (§5.3.2).
type BlockEvent struct {
	BlockedID   uint64
	BlockedType string
	BlockerID   uint64
	BlockerType string
	Start       time.Time
	End         time.Time
}

// BlockReporter receives blocking events from lock managers, pipeline waits
// and dependency waits. Implementations must be cheap and non-blocking.
type BlockReporter interface {
	ReportBlock(BlockEvent)
}

// Oracle hands out globally monotonic timestamps. One oracle serves begin
// timestamps, SSI/TSO start timestamps and commit timestamps, so all
// timestamp comparisons in the system are in a single domain.
type Oracle interface {
	// Next returns the next timestamp (strictly increasing).
	Next() uint64
	// Last returns the most recently issued timestamp.
	Last() uint64
}

// Env bundles the engine facilities a CC mechanism may use. One Env is
// shared by all nodes of a tree build.
type Env struct {
	Oracle   Oracle
	Reporter BlockReporter // may be nil
	// LockTimeout bounds lock and pipeline waits; expiry aborts the waiter
	// (deadlock resolution by timeout, §4.4.1).
	LockTimeout time.Duration
	// BatchAge is how long a non-leaf SSI or TSO batch takes new members
	// (Batches).
	BatchAge time.Duration
	// Specs maps transaction type -> static description.
	Specs map[string]*Spec
	// Watermark returns the minimum begin timestamp of any active
	// transaction (may be nil). SSI uses it to prune reader records
	// safely: a reader that committed below the watermark cannot be
	// concurrent with any current or future writer.
	Watermark func() uint64
}

// Report emits a blocking event if a reporter is configured and the wait was
// long enough to matter: sub-100µs waits are scheduling noise, and dropping
// them keeps the event volume (and hence profiling overhead, Figure 5.17)
// low under saturation.
func (e *Env) Report(blocked, blocker *Txn, start, end time.Time) {
	if e.Reporter == nil || blocker == nil || end.Sub(start) < 100*time.Microsecond {
		return
	}
	e.Reporter.ReportBlock(BlockEvent{
		BlockedID:   blocked.ID,
		BlockedType: blocked.Type,
		BlockerID:   blocker.ID,
		BlockerType: blocker.Type,
		Start:       start,
		End:         end,
	})
}
