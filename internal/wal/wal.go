// Package wal implements Tebaldi's durability module (§4.5.4): write-ahead
// precommit logs per data server, a two-phase-commit shaped protocol, global
// checkpoint (GCP) epochs, asynchronous flushing, and the three-step
// recovery procedure.
//
// Protocol summary (mirroring the paper):
//
//   - During commit, each participating data server appends a precommit
//     record carrying the transaction's writes on that server, the number of
//     participating servers, and the server's current GCP epoch id.
//   - The coordinator appends a commit record (transaction id, commit
//     timestamp, global epoch id = max of participant epochs).
//   - With asynchronous flushing, commit notification is decoupled from
//     durable notification: logs are batched and flushed in GCP epochs;
//     committed-but-not-yet-durable transactions are indistinguishable from
//     durable ones to the CC mechanisms, so durability never blocks
//     concurrency control.
//   - Recovery retrieves the log, discards transactions with a missing
//     precommit record, a missing commit record or an epoch beyond the
//     durable frontier, and reconstructs the latest committed version of
//     every key; CC-internal state is rebuilt implicitly (the fresh CC tree
//     treats recovered data as committed history).
//
// Logical logs, one physical device. The paper keeps a log per data server
// because its data servers are separate machines, each with a disk of its
// own. Here every data server lives in one process on one disk, where N log
// files mean N fsyncs that the device serialises: a transaction touching
// three servers plus its coordinator waited on four of them, and concurrent
// committers spread over 16 files shared almost none. So the records stay
// the paper's — one precommit record per participating data server, one
// coordinator commit record — but they all go through ONE group-commit
// appender (group.go) into ONE kvstore file, wal.log: whatever queued while
// the previous batch was being written becomes the next batch, written with
// one Set and — under SyncCommit — acknowledged by one fsync.
//
// Keys in wal.log (persistence is outsourced to internal/kvstore through a
// key-value interface, as the paper outsources it to Redis/RocksDB):
//
//	b/<seq>  one coalesced batch of precommit, commit and abort records;
//	         <seq> is the appender's monotone batch sequence
//	e        the durable epoch frontier (u64): every record of an epoch at or
//	         below it is in the log
//	ck       the checkpoint marker (checkpoint id, snapshot cut): its fsync
//	         commits the checkpoint whose snapshot is snap-<id>.kv
//
// The first append or fsync error poisons the log (Manager.Err): every
// queued and later request fails with it, and nothing is written after it,
// so no later successful fsync can vouch for a batch the kernel dropped.
// Reopening the log (Open, or Recover) is the only way to resume.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
)

const (
	logName     = "wal.log"
	batchPrefix = "b/"
	epochKey    = "e"
	ckKey       = "ck"
)

var errClosed = errors.New("wal: closed")

// Options configure the durability module.
type Options struct {
	// Dir is the directory holding the log and the checkpoint snapshot.
	Dir string
	// Shards is unused: the log does not depend on the number of data
	// servers (each precommit record carries its transaction's count). It
	// is kept only because benchmark/probes.go sets it.
	Shards int
	// EpochInterval is the GCP epoch length (the paper uses 1s; tests and
	// benchmarks use shorter epochs).
	EpochInterval time.Duration
	// SyncCommit forces a flush before commit returns (durability
	// notification == commit notification). Default is asynchronous
	// flushing. A synchronous commit waits for the batch its records were
	// coalesced into — one fsync serves every committer in the batch.
	SyncCommit bool
	// MaxBatch bounds how many records the appender coalesces into a
	// single batch append (default 256).
	MaxBatch int
	// Observer, when non-nil, is called after every coalesced batch
	// append with the number of records, the append(+flush) latency and
	// any error. The engine wires this to its batch-size / flush-latency
	// counters.
	Observer func(records int, d time.Duration, err error)
	// CrashHook, when non-nil, is invoked at every durability-critical
	// boundary (append, flush, seal, checkpoint snapshot/frontier and the
	// compaction write/sync/rename inside kvstore). Crash-point torture
	// tests copy the log directory inside the hook — the copy is exactly
	// the state a process kill at that boundary would leave — and assert
	// recovery from it. Nil in production.
	CrashHook func(point string)
}

// KV is one logged write.
type KV struct {
	Key   core.Key
	Value []byte
}

// Manager is the durability module: one log store and the one group-commit
// appender (group.go) every record reaches it through.
type Manager struct {
	opts  Options
	st    *kvstore.Store
	app   *appender
	epoch atomic.Uint64

	// recovered is what Open's scan found, until Recovered hands it over.
	recovered atomic.Pointer[RecoveredState]

	// failed is the sticky log error, set once by the appender.
	failed atomic.Pointer[error]

	mu           sync.Mutex
	durableEpoch uint64
	durableCond  *sync.Cond

	// closeMu serializes pipeline submission against epoch seals and
	// Close. Stagers (Precommit/Commit/Abort/Checkpoint) hold the read side
	// across the epoch read AND the channel send, so a record carrying
	// epoch e is always in the appender's queue before flushEpoch — which
	// holds the write side while advancing the epoch and enqueueing the
	// seal — can seal e; FIFO then guarantees the record is flushed before
	// the durable frontier covers it. Close holds the write side while
	// marking the pipeline closed and closing the queue, so nobody sends on
	// a closed channel; later submissions fail with errClosed. Checkpoint
	// stages its frontier marker while holding ckMu, so the read side nests
	// inside it.
	//
	// tebaldi:locks after wal.Manager.ckMu
	closeMu sync.RWMutex
	closed  bool

	// ckMu serializes checkpoints; ckSeq is the last completed checkpoint
	// id (resumed from the log's ck marker on reopen).
	ckMu  sync.Mutex
	ckSeq uint64

	stop chan struct{}
	done chan struct{}
}

// oldLayouts are the files of layouts this version cannot read. A directory
// holding one is refused before anything is opened or created in it: read as
// the current layout, its history or its checkpoint would be silently lost.
var oldLayouts = []struct{ glob, layout string }{
	{"ds-*.log", "per-data-server layout"},
	{"CHECKPOINT", "manifest checkpoint layout"},
	{"snap-*-ds-*.kv", "manifest checkpoint layout"},
}

// openLog opens dir's log, for Open and Recover alike, after refusing the
// old layouts.
func openLog(dir string) (*kvstore.Store, error) {
	for _, o := range oldLayouts {
		if old, _ := filepath.Glob(filepath.Join(dir, o.glob)); len(old) > 0 {
			return nil, fmt.Errorf("wal: %s holds %d files of the %s (%s, ...); this version keeps one %s with its own checkpoint marker and cannot read them",
				dir, len(old), o.layout, filepath.Base(old[0]), logName)
		}
	}
	return kvstore.Open(filepath.Join(dir, logName))
}

// Open opens dir's log and recovers it in one scan (recovery.go): the state
// it finds waits in Recovered, and the Manager resumes the batch sequence,
// the epoch marker and the checkpoint id from the same pass. The epoch
// counter starts past the frontier marker, so no record staged from now on
// belongs to an epoch the log already calls sealed.
func Open(opts Options) (*Manager, error) {
	if opts.EpochInterval <= 0 {
		opts.EpochInterval = time.Second
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 256
	}
	st, ls, err := load(opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(ls.unsealed) > 0 {
		// Committed transactions whose epoch the frontier does not cover
		// were discarded; once this life seals past their epoch they would
		// look durable. Drop them before anything is appended.
		if _, _, err := st.Rewrite(func(key string, value []byte) ([]byte, bool) {
			return compactRecord(key, value, ls.unsealed)
		}); err != nil {
			return nil, errors.Join(err, st.Close())
		}
	}
	if opts.CrashHook != nil {
		st.SetCrashHook(opts.CrashHook)
	}
	m := &Manager{opts: opts, st: st, ckSeq: ls.ckID, durableEpoch: ls.frontier, stop: make(chan struct{}), done: make(chan struct{})}
	m.durableCond = sync.NewCond(&m.mu)
	m.recovered.Store(ls.rec)
	m.app = newAppender(m, st)
	m.app.seq, m.app.marker = ls.nextSeq, ls.frontier
	m.epoch.Store(ls.frontier + 1)
	go m.app.run()
	go m.flusher()
	return m, nil
}

// Recovered hands over the state Open recovered from the log. It does so
// once — later calls return nil — so the Manager does not keep the
// recovered writes alive.
func (m *Manager) Recovered() *RecoveredState { return m.recovered.Swap(nil) }

// Synchronous reports whether commits wait for their flush.
func (m *Manager) Synchronous() bool { return m.opts.SyncCommit }

func (m *Manager) observe(records int, d time.Duration, err error) {
	if m.opts.Observer != nil {
		m.opts.Observer(records, d, err)
	}
}

func (m *Manager) hook(point string) {
	if m.opts.CrashHook != nil {
		m.opts.CrashHook(point)
	}
}

// Epoch returns the current GCP epoch id.
func (m *Manager) Epoch() uint64 { return m.epoch.Load() }

// DurableEpoch returns the newest fully persisted epoch.
func (m *Manager) DurableEpoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durableEpoch
}

// LogBytes returns the log's logical size: its records, not the zeroed space
// the store keeps allocated past them.
func (m *Manager) LogBytes() (int64, error) { return m.st.Size() }

// Err returns the sticky log error: nil until the first append or fsync
// fails, then that failure for the rest of the Manager's life.
func (m *Manager) Err() error {
	if p := m.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail poisons the log (appender only) and wakes WaitDurable callers, whose
// epochs will now never be sealed. It returns the sticky error.
func (m *Manager) fail(err error) error {
	err = fmt.Errorf("wal: log failed, recover to resume: %w", err)
	m.failed.Store(&err)
	m.mu.Lock()
	m.durableCond.Broadcast()
	m.mu.Unlock()
	return err
}

// unusable reports why nothing may be staged: the log is poisoned or
// closed. Called with closeMu held.
func (m *Manager) unusable() error {
	if err := m.Err(); err != nil {
		return err
	}
	if m.closed {
		return errClosed
	}
	return nil
}

// Precommit is PrecommitShards for callers that hold the transaction's
// writes keyed by data server index.
func (m *Manager) Precommit(txnID uint64, writesByShard map[int][]KV) (uint64, *Ticket, error) {
	perShard := make([][]KV, 0, len(writesByShard))
	for _, kvs := range writesByShard {
		perShard = append(perShard, kvs)
	}
	return m.PrecommitShards(txnID, perShard)
}

// PrecommitShards stages one precommit record per participating data server
// and returns the transaction's global epoch id (max of participant epochs —
// with one process-wide epoch counter they coincide) plus the Ticket
// tracking the transaction's records through the pipeline. perShard holds
// one element per participating data server: the transaction's writes owned
// by that server. The ticket is sized for the precommit records plus the
// coordinator commit record that Commit enqueues later. The writes are
// copied; the caller may reuse perShard as soon as the call returns.
func (m *Manager) PrecommitShards(txnID uint64, perShard [][]KV) (uint64, *Ticket, error) {
	n := len(perShard)
	size := 0
	for _, kvs := range perShard {
		size += precommitSize(kvs)
	}
	buf := make([]byte, 0, size)
	tk := newTicket(int32(n) + 1)
	m.closeMu.RLock()
	if err := m.unusable(); err != nil {
		m.closeMu.RUnlock()
		return 0, nil, err
	}
	// The epoch MUST be read under the stage/seal lock: otherwise a seal
	// of this epoch could slip between the read and the sends, and the
	// records would miss the flush their epoch promises.
	epoch := m.epoch.Load()
	for _, kvs := range perShard {
		start := len(buf)
		buf = appendPrecommit(buf, txnID, epoch, n, kvs)
		m.app.ch <- appendReq{kind: recPrecommit, payload: buf[start:], epoch: epoch, tk: tk}
	}
	m.closeMu.RUnlock()
	return epoch, tk, nil
}

// Commit stages the coordinator's commit record and returns without
// waiting: commit notification is decoupled from durable notification
// (§4.5.4) even under SyncCommit, where the caller decides when to block on
// the ticket — the engine releases CC state first, then waits, so the log
// never throttles concurrency control. Ticket.Wait returns once the
// transaction's whole record set — precommit records included, since the
// appender is FIFO — is appended, and flushed under SyncCommit. An error
// means the record was not staged (the log is poisoned or closed); the
// ticket completes with it.
func (m *Manager) Commit(txnID, commitTS, epoch uint64, tk *Ticket) error {
	payload := make([]byte, 24)
	binary.LittleEndian.PutUint64(payload[0:8], txnID)
	binary.LittleEndian.PutUint64(payload[8:16], commitTS)
	m.closeMu.RLock()
	if err := m.unusable(); err != nil {
		m.closeMu.RUnlock()
		tk.complete(err)
		return err
	}
	// The participant epoch from Precommit may already be sealed by the
	// time the commit record is staged; bump the record to the current
	// epoch (read under the stage/seal lock) so the epoch-frontier rule
	// stays sound — recovery becomes conservative (the transaction is
	// classified into a later, possibly unsealed epoch), never wrong.
	if cur := m.epoch.Load(); cur > epoch {
		epoch = cur
	}
	binary.LittleEndian.PutUint64(payload[16:24], epoch)
	m.app.ch <- appendReq{kind: recCommit, payload: payload, epoch: epoch, tk: tk}
	m.closeMu.RUnlock()
	return nil
}

// Abort stages an abort marker for a transaction whose precommit records
// were staged but whose commit record will never be (the engine's
// force-abort between precommit staging and the commit point). Recovery
// discards commit-less transactions either way; the marker exists so
// checkpoint compaction can reclaim the orphaned precommit records instead
// of carrying them forever. Fire-and-forget: nothing waits on the staged
// record, and on a poisoned or closed log there is nothing to reclaim.
func (m *Manager) Abort(txnID uint64) {
	payload := binary.LittleEndian.AppendUint64(nil, txnID)
	m.closeMu.RLock()
	if m.unusable() == nil {
		m.app.ch <- appendReq{kind: recAbort, payload: payload, epoch: m.epoch.Load(), tk: newTicket(1)}
	}
	m.closeMu.RUnlock()
}

// WaitDurable blocks until epoch is fully persisted (the durable
// notification of §4.5.4). It returns the sticky log error if the log fails
// first: the epoch will then never be sealed.
func (m *Manager) WaitDurable(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.durableEpoch < epoch {
		if err := m.Err(); err != nil {
			return err
		}
		m.durableCond.Wait()
	}
	return nil
}

// flusher advances GCP epochs: seal the open epoch through the appender,
// publish the durable frontier.
func (m *Manager) flusher() {
	defer close(m.done)
	t := time.NewTicker(m.opts.EpochInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			//lint:allow syncerr -- a failed seal poisons the log (Manager.Err), which Close and every later stager report; the final flush must not block Close
			m.flushEpoch()
			return
		case <-t.C:
			//lint:allow syncerr -- a failed seal poisons the log (Manager.Err), which every later stager and WaitDurable report
			m.flushEpoch()
		}
	}
}

func (m *Manager) flushEpoch() error {
	// Advance the epoch and enqueue the seal under the write side of the
	// stage/seal lock: stagers read the epoch and send their records under
	// the read side, so every record carrying epoch <= cur is already in
	// the appender's queue (FIFO, ahead of the seal) — otherwise
	// WaitDurable(cur) would lie.
	m.closeMu.Lock()
	if err := m.unusable(); err != nil {
		m.closeMu.Unlock()
		return err
	}
	cur := m.epoch.Add(1) - 1 // seal epoch `cur`, open the next
	tk := newTicket(1)
	m.app.ch <- appendReq{kind: recSeal, epoch: cur, tk: tk}
	m.closeMu.Unlock()
	// Wait outside the lock: the appender does the flushing, and stagers
	// must be free to pile the next epoch's records in behind the seal
	// meanwhile.
	if err := tk.Wait(); err != nil {
		return err
	}
	m.mu.Lock()
	if cur > m.durableEpoch {
		m.durableEpoch = cur
	}
	m.durableCond.Broadcast()
	m.mu.Unlock()
	return nil
}

// Close seals the open epoch, drains the group-commit pipeline and closes
// the log. A poisoned log reports its sticky error.
func (m *Manager) Close() error {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done // flusher has run the final flushEpoch
	m.closeMu.Lock()
	if !m.closed {
		m.closed = true
		close(m.app.ch)
	}
	m.closeMu.Unlock()
	<-m.app.exited
	err := m.st.Close()
	if ferr := m.Err(); ferr != nil {
		return ferr
	}
	return err
}

func precommitSize(kvs []KV) int {
	size := 8 + 8 + 4 + 4
	for _, kv := range kvs {
		size += 4 + len(kv.Key.Table) + 4 + len(kv.Key.Row) + 4 + len(kv.Value)
	}
	return size
}

// appendPrecommit appends one data server's precommit record to buf:
//
//	u64 txnID | u64 epoch | u32 nShards | u32 count |
//	repeat: u32 len, table | u32 len, row | u32 len, value
func appendPrecommit(buf []byte, txnID, epoch uint64, nShards int, kvs []KV) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, txnID)
	buf = le.AppendUint64(buf, epoch)
	buf = le.AppendUint32(buf, uint32(nShards))
	buf = le.AppendUint32(buf, uint32(len(kvs)))
	for _, kv := range kvs {
		buf = append(le.AppendUint32(buf, uint32(len(kv.Key.Table))), kv.Key.Table...)
		buf = append(le.AppendUint32(buf, uint32(len(kv.Key.Row))), kv.Key.Row...)
		buf = append(le.AppendUint32(buf, uint32(len(kv.Value))), kv.Value...)
	}
	return buf
}

type precommit struct {
	txnID   uint64
	epoch   uint64
	nShards int
	writes  []KV
}

func decodePrecommit(buf []byte) (*precommit, error) {
	p := &precommit{}
	off := 0
	get64 := func() (uint64, bool) {
		if off+8 > len(buf) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		return v, true
	}
	get32 := func() (uint32, bool) {
		if off+4 > len(buf) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v, true
	}
	getBytes := func() ([]byte, bool) {
		n, ok := get32()
		if !ok || off+int(n) > len(buf) {
			return nil, false
		}
		b := buf[off : off+int(n)]
		off += int(n)
		return b, true
	}
	var ok bool
	if p.txnID, ok = get64(); !ok {
		return nil, fmt.Errorf("wal: truncated precommit")
	}
	if p.epoch, ok = get64(); !ok {
		return nil, fmt.Errorf("wal: truncated precommit")
	}
	ns, ok := get32()
	if !ok {
		return nil, fmt.Errorf("wal: truncated precommit")
	}
	p.nShards = int(ns)
	nw, ok := get32()
	if !ok {
		return nil, fmt.Errorf("wal: truncated precommit")
	}
	for i := 0; i < int(nw); i++ {
		tbl, ok1 := getBytes()
		row, ok2 := getBytes()
		val, ok3 := getBytes()
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("wal: truncated precommit write")
		}
		v := make([]byte, len(val))
		copy(v, val)
		p.writes = append(p.writes, KV{Key: core.Key{Table: string(tbl), Row: string(row)}, Value: v})
	}
	return p, nil
}
