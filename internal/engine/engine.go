package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Engine is a running Tebaldi instance: one CC tree over a sharded
// multiversion store, with admission control for live reconfiguration.
type Engine struct {
	opts   Options
	oracle *oracle.Oracle
	store  *storage.Store
	prof   *profiler.Profiler
	env    *core.Env
	walMgr *wal.Manager

	specMu sync.RWMutex
	specs  map[string]*core.Spec

	// gate serializes admission against reconfiguration: Begin admits
	// under RLock; reconfiguration blocks admission under Lock and may
	// additionally block individual types (online update).
	//
	// tebaldi:locks after engine.Engine.treeMu
	gate struct {
		sync.RWMutex
		blockedTypes map[string]bool
		reopen       chan struct{}
	}
	tree *Tree // guarded by gate (written under gate.Lock)

	treeMu sync.Mutex // serializes whole reconfigurations

	active  [64]activeShard
	txnSeq  atomic.Uint64
	loadSeq atomic.Uint64
	nodeSeq atomic.Uint64
	stats   Stats

	// snapSources are the current tree's CC snapshot-lower-bound
	// callbacks (SSI batches, TSO batch queues); rebuilt on every tree
	// change and read lock-free by Watermark.
	snapSources atomic.Pointer[[]func() uint64]

	// ckMu serializes checkpoints against each other and against version
	// GC: the checkpoint scan needs "latest committed version <= cut" to
	// stay reachable on every chain for the duration of the scan.
	ckMu   sync.Mutex
	stopGC chan struct{}
	gcDone chan struct{}
	stopCK chan struct{}
	ckDone chan struct{}
	closed atomic.Bool
}

// snapshotSource is implemented by CC mechanisms whose transactions read at
// snapshots older than their begin timestamps (batching).
type snapshotSource interface {
	SnapshotLowerBound() uint64
}

// refreshSnapSources rebuilds the snapshot-lower-bound callback list from
// the current tree. Must be called whenever the tree changes (under the
// gate write lock or during construction).
func (e *Engine) refreshSnapSources(tree *Tree) {
	var src []func() uint64
	tree.Root.Walk(func(n *core.Node) {
		if ss, ok := n.CC.(snapshotSource); ok {
			src = append(src, ss.SnapshotLowerBound)
		}
	})
	e.snapSources.Store(&src)
}

type activeShard struct {
	// Innermost engine lock: held only across map ops by register/
	// unregister/snapshotActive, which run under admission (gate.RLock),
	// reconfiguration drains (treeMu) and checkpoint cuts (ckMu).
	//
	// tebaldi:locks after engine.Engine.gate engine.Engine.treeMu engine.Engine.ckMu
	mu   sync.Mutex
	txns map[uint64]*core.Txn
}

// New creates an engine with the given initial CC tree configuration and
// transaction type specs. With a DurabilityDir it opens the log there, and
// whatever the log holds is recovered before New returns (§4.5.4).
func New(opts Options, specs []*core.Spec, config *NodeSpec) (*Engine, error) {
	e, _, err := open(opts, specs, config)
	return e, err
}

// Recover is New on a DurabilityDir, which it requires, also returning what
// recovery found there.
func Recover(opts Options, specs []*core.Spec, config *NodeSpec) (*Engine, *wal.RecoveredState, error) {
	if opts.DurabilityDir == "" {
		return nil, nil, fmt.Errorf("engine: Recover requires DurabilityDir")
	}
	return open(opts, specs, config)
}

func open(opts Options, specs []*core.Spec, config *NodeSpec) (*Engine, *wal.RecoveredState, error) {
	e := &Engine{
		opts:   opts.withDefaults(),
		oracle: oracle.New(),
		specs:  make(map[string]*core.Spec),
	}
	e.store = storage.New(e.opts.Shards)
	e.prof = profiler.New(e.opts.Profiling)
	for _, sp := range specs {
		e.specs[sp.Name] = sp
	}
	e.env = &core.Env{
		Oracle:      e.oracle,
		Reporter:    e.prof,
		LockTimeout: e.opts.LockTimeout,
		BatchAge:    e.opts.BatchAge,
		Specs:       e.specs,
		Watermark:   e.Watermark,
	}
	e.gate.reopen = make(chan struct{})
	for i := range e.active {
		e.active[i].txns = make(map[uint64]*core.Txn)
	}

	if e.opts.DurabilityDir != "" {
		m, err := wal.Open(wal.Options{
			Dir:           e.opts.DurabilityDir,
			EpochInterval: e.opts.GCPEpoch,
			SyncCommit:    e.opts.DurabilitySync,
			Observer:      e.stats.recordWalBatch,
			CrashHook:     e.opts.crashHook,
		})
		if err != nil {
			return nil, nil, err
		}
		e.walMgr = m
	}

	tree, err := e.buildTree(config)
	if err != nil {
		if e.walMgr != nil {
			//lint:allow syncerr -- error-path teardown of a WAL that logged nothing yet; the buildTree error is what the caller needs
			e.walMgr.Close()
		}
		return nil, nil, err
	}
	e.tree = tree
	e.refreshSnapSources(tree)

	// Recovery, before any client runs: the oracle and the transaction ids
	// resume past everything in the log, and the surviving writes become
	// committed history.
	var st *wal.RecoveredState
	if e.walMgr != nil {
		st = e.walMgr.Recovered()
		e.oracle.AdvanceTo(st.MaxTS)
		e.txnSeq.Store(st.MaxTxnID)
		for _, w := range st.Writes {
			e.loadVersion(w.Key, w.Value, w.CommitTS)
		}
		e.stats.recordRecovery(st)
	}

	if e.opts.GCInterval > 0 {
		e.stopGC = make(chan struct{})
		e.gcDone = make(chan struct{})
		go e.gcLoop()
	}
	if e.opts.CheckpointEvery > 0 && e.walMgr != nil {
		e.stopCK = make(chan struct{})
		e.ckDone = make(chan struct{})
		go e.ckLoop()
	}
	return e, st, nil
}

// Oracle exposes the timestamp oracle.
func (e *Engine) Oracle() core.Oracle { return e.oracle }

// Store exposes the multiversion store.
func (e *Engine) Store() *storage.Store { return e.store }

// Profiler exposes the blocking-event profiler.
func (e *Engine) Profiler() *profiler.Profiler { return e.prof }

// Stats exposes the engine counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Wal exposes the durability manager (nil when durability is off).
func (e *Engine) Wal() *wal.Manager { return e.walMgr }

// Spec returns the registered spec for a transaction type (nil if unknown).
func (e *Engine) Spec(name string) *core.Spec {
	e.specMu.RLock()
	defer e.specMu.RUnlock()
	return e.specs[name]
}

// Specs returns all registered specs.
func (e *Engine) Specs() []*core.Spec {
	e.specMu.RLock()
	defer e.specMu.RUnlock()
	out := make([]*core.Spec, 0, len(e.specs))
	for _, s := range e.specs {
		out = append(out, s)
	}
	return out
}

// Config returns (a copy of) the current CC tree configuration.
func (e *Engine) Config() *NodeSpec {
	e.gate.RLock()
	defer e.gate.RUnlock()
	return e.tree.Spec.Clone()
}

// ConfigString renders the live CC tree.
func (e *Engine) ConfigString() string {
	e.gate.RLock()
	defer e.gate.RUnlock()
	return e.tree.Root.String()
}

// Begin starts a transaction of the given registered type. part is the
// instance-partition input (0 when unused). Begin blocks while a
// reconfiguration has gated this type.
func (e *Engine) Begin(typ string, part uint64) (*Tx, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("engine: closed")
	}
	var t *core.Txn
	for {
		e.gate.RLock()
		if e.gate.blockedTypes[typ] {
			ch := e.gate.reopen
			e.gate.RUnlock()
			<-ch
			continue
		}
		// Pooled transaction: Path/Slots keep their backing arrays from a
		// previous life (see core.PutTxn's reclamation rule).
		t = core.GetTxn(e.txnSeq.Add(1), typ, part, e.oracle.Next())
		t.Path = e.tree.Root.AppendPath(t, t.Path)
		if cap(t.Slots) >= len(t.Path) {
			t.Slots = t.Slots[:len(t.Path)]
		} else {
			t.Slots = make([]any, len(t.Path))
		}
		e.register(t)
		e.gate.RUnlock()
		break
	}
	tx := &Tx{e: e, t: t, id: t.ID}
	for _, n := range t.Path {
		if err := n.CC.Begin(t); err != nil {
			return nil, tx.abortWith(err)
		}
	}
	return tx, nil
}

// RunTxn executes fn in a transaction of the given type, retrying on
// system-initiated aborts after core.RetryBackoff.
func (e *Engine) RunTxn(typ string, part uint64, fn func(*Tx) error) error {
	for attempt := 0; ; attempt++ {
		if e.closed.Load() {
			return fmt.Errorf("engine: closed")
		}
		tx, err := e.Begin(typ, part)
		if err == nil {
			err = fn(tx)
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Rollback(err)
			}
		}
		if err == nil {
			return nil
		}
		if !core.IsRetryable(err) {
			return err
		}
		time.Sleep(core.RetryBackoff(attempt, rand.Intn))
	}
}

func (e *Engine) register(t *core.Txn) {
	s := &e.active[t.ID%64]
	s.mu.Lock()
	//lint:allow poolescape -- the active registry is mu-guarded and unregister removes the entry before release/PutTxn, so no reference survives into the next pool life
	s.txns[t.ID] = t
	s.mu.Unlock()
}

func (e *Engine) unregister(t *core.Txn) {
	s := &e.active[t.ID%64]
	s.mu.Lock()
	delete(s.txns, t.ID)
	s.mu.Unlock()
}

// forEachActive visits active transactions.
func (e *Engine) forEachActive(f func(*core.Txn)) {
	for i := range e.active {
		s := &e.active[i]
		s.mu.Lock()
		for _, t := range s.txns {
			f(t)
		}
		s.mu.Unlock()
	}
}

// activeCount counts active transactions matching filter (nil = all).
func (e *Engine) activeCount(filter func(*core.Txn) bool) int {
	n := 0
	e.forEachActive(func(t *core.Txn) {
		if filter == nil || filter(t) {
			n++
		}
	})
	return n
}

// ActiveTxns counts transactions currently registered (begun, neither
// committed nor aborted). The networked front end exports it as a gauge and
// session-lifecycle tests assert it drops to zero after client disconnects.
func (e *Engine) ActiveTxns() int { return e.activeCount(nil) }

// Watermark is the lower bound of any snapshot a current or future
// transaction may read at: the minimum of active transactions' begin
// timestamps and the CC tree's open batch snapshots (an SSI/TSO batch
// snapshot can predate every active transaction's begin). It is the GC
// horizon and the reader-record pruning bound.
func (e *Engine) Watermark() uint64 {
	wm := uint64(math.MaxUint64)
	e.forEachActive(func(t *core.Txn) {
		if t.BeginTS < wm {
			wm = t.BeginTS
		}
	})
	if src := e.snapSources.Load(); src != nil {
		for _, f := range *src {
			if b := f(); b < wm {
				wm = b
			}
		}
	}
	if wm == math.MaxUint64 {
		return e.oracle.Last()
	}
	return wm
}

func (e *Engine) gcLoop() {
	defer close(e.gcDone)
	tick := time.NewTicker(e.opts.GCInterval)
	defer tick.Stop()
	for {
		select {
		case <-e.stopGC:
			return
		case <-tick.C:
			// ckMu pauses GC while a checkpoint scans the chains: GC
			// running under a newer watermark could prune the very
			// versions the checkpoint cut still needs. Only chains the
			// write path flagged as multi-version are visited; the old
			// full-keyspace sweep every tick dominated CPU profiles.
			e.ckMu.Lock()
			e.store.GCPending(e.Watermark())
			e.ckMu.Unlock()
		}
	}
}

func (e *Engine) ckLoop() {
	defer close(e.ckDone)
	tick := time.NewTicker(e.opts.CheckpointEvery)
	defer tick.Stop()
	for {
		select {
		case <-e.stopCK:
			return
		case <-tick.C:
			// Errors are counted (stats.checkpointErrors); the next
			// tick retries. The log keeps growing until one succeeds,
			// which is the durable-by-default failure mode.
			e.Checkpoint()
		}
	}
}

// Checkpoint snapshots the committed state at a watermark-consistent cut
// into one snapshot file, commits it with the log's checkpoint marker, and
// compacts the log down to the post-cut tail
// (§4.5.4's "logs are pruned by log truncation at checkpoints", which the
// paper outsources to the storage layer). Safe to call concurrently with
// running transactions: the cut is the GC watermark, below which no
// transaction is still active, so the snapshot is a consistent prefix of
// the commit order; everything above it stays in the log.
func (e *Engine) Checkpoint() error {
	if e.walMgr == nil {
		return fmt.Errorf("engine: checkpoint requires durability (Options.DurabilityDir)")
	}
	e.ckMu.Lock()
	defer e.ckMu.Unlock()
	// Every transaction with commitTS <= the watermark has fully finished:
	// were such a transaction still registered, the watermark would be at
	// or below its begin timestamp, which is strictly below its commit
	// timestamp — a contradiction. Transactions committing during the scan
	// draw commit timestamps above the watermark, so the cut is frozen.
	snapTS := e.Watermark()
	var entries []wal.SnapshotEntry
	e.store.ForEach(func(c *core.Chain) {
		c.Lock()
		v := c.LatestCommittedBefore(snapTS)
		if v == nil {
			c.Unlock()
			return
		}
		val, cts := v.Value, v.CommitTS()
		c.Unlock()
		entries = append(entries, wal.SnapshotEntry{Key: c.Key, Value: val, CommitTS: cts})
	})
	res, err := e.walMgr.Checkpoint(snapTS, entries)
	e.stats.recordCheckpoint(res, err)
	return err
}

// loadVersion installs a committed version outside any CC tree (bulk load /
// recovery). The synthetic writer has an empty path, so every CC treats the
// version as plain committed history.
func (e *Engine) loadVersion(k core.Key, value []byte, commitTS uint64) {
	w := core.NewTxn(math.MaxUint64-e.loadSeq.Add(1), "_load", 0, 0)
	w.MarkShared() // retained by the installed version; never pool-eligible
	w.MarkCommitted(commitTS)
	ch := e.store.Chain(k)
	ch.Lock()
	n := ch.Install(&core.Version{Writer: w, Value: value})
	ch.Unlock()
	if n > 1 {
		// Recovery replays several writes of the same key onto one chain;
		// flag it so the incremental collector visits it (the write path
		// only flags chains it grows itself).
		e.store.MarkGC(ch)
	}
}

// Load bulk-loads a committed key-value pair (initial database population).
func (e *Engine) Load(k core.Key, value []byte) {
	e.loadVersion(k, value, e.oracle.Next())
}

// ReadCommitted returns the latest committed value of k outside any
// transaction (test and tooling helper).
func (e *Engine) ReadCommitted(k core.Key) []byte {
	ch := e.store.Lookup(k)
	if ch == nil {
		return nil
	}
	ch.Lock()
	defer ch.Unlock()
	if v := ch.LatestCommitted(); v != nil {
		return v.Value
	}
	return nil
}

// Close stops background services and flushes the WAL.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.stopCK != nil {
		close(e.stopCK)
		<-e.ckDone
	}
	if e.stopGC != nil {
		close(e.stopGC)
		<-e.gcDone
	}
	if e.walMgr != nil {
		return e.walMgr.Close()
	}
	return nil
}
