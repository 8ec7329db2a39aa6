// Package wal implements Tebaldi's durability module (§4.5.4): a write-ahead
// log of committed transactions, global checkpoint (GCP) epochs,
// asynchronous flushing, group commit, checkpoints and recovery.
//
// Protocol summary:
//
//   - A writing transaction logs ONE record, txnID | commitTS | epoch |
//     writes. It is encoded before the commit point and staged inside the
//     same exclusive section as the commit point itself (Manager.Stage), so
//     log order contains visibility order: a transaction that read another's
//     writes passed its commit point after the other's, and its record
//     follows the other's in the log.
//   - With asynchronous flushing, commit notification is decoupled from
//     durable notification: records are batched and flushed in GCP epochs;
//     committed-but-not-yet-durable transactions are indistinguishable from
//     durable ones to the CC mechanisms, so durability never blocks
//     concurrency control.
//   - Recovery retrieves the log, discards records whose epoch is beyond the
//     durable frontier, and reconstructs the latest committed version of
//     every key; CC-internal state is rebuilt implicitly (the fresh CC tree
//     treats recovered data as committed history).
//
// The recovered state is closed under reads-from. Suppose B read A. B's
// commit point follows A's, so B's record follows A's in the one FIFO, and
// B's epoch is at least A's. Under SyncCommit, B's acknowledgement means an
// fsync covered B's batch, hence A's record too. Asynchronously, B's epoch
// at or below the frontier puts A's there as well, and A was staged before
// that epoch's seal.
//
// One record, one device. The paper logs a precommit record per data server
// and a coordinator commit record because its data servers are separate
// machines, each with a disk of its own, whose precommits can be lost one by
// one. Here every data server lives in one process on one disk, and every
// record goes through ONE group-commit appender (group.go) into ONE kvstore
// file, wal.log, behind one checksummed prefix: no participant's part can be
// lost on its own, so one record per transaction carries all that recovery
// needs. Whatever queued while the previous batch was being written becomes
// the next batch: one store record per transaction, then the markers, and —
// under SyncCommit — one fsync that acknowledges them all.
//
// Records in wal.log (persistence is outsourced to internal/kvstore, an
// append-only log of key-value records, as the paper outsources it to
// Redis/RocksDB). A key occurs once per record of its kind; recovery reads
// the records in file order, and compaction keeps that order:
//
//	t   one transaction record (encodeRecord). Those of transaction id 0
//	    are a checkpoint's snapshot records: epoch 0, one write each, the
//	    key's latest committed version at the cut; they follow the c record
//	e   an epoch marker (u64): every record of an epoch at or below it
//	    precedes it; the largest is the durable frontier
//	c   a checkpoint's cut (u64): the first record of a checkpointed log
//
// A checkpoint (checkpoint.go) is one rewrite of the log, which the store
// seals: corruption in the rewritten part fails Open by name, while a torn
// tail past it is truncated.
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
	logName  = "wal.log"
	txnKey   = "t"
	epochKey = "e"
	cutKey   = "c"
)

var errClosed = errors.New("wal: closed")

// ErrTooLarge refuses a transaction whose record exceeds the log store's
// record limit: replay would end the log at it, and lose every record after
// it. The log stays usable.
var ErrTooLarge = fmt.Errorf("wal: a transaction record is limited to %d bytes (kvstore.MaxValueLen)", kvstore.MaxValueLen)

// Options configure the durability module.
type Options struct {
	// Dir is the directory holding the log.
	Dir string
	// Shards is unused: the log does not depend on the number of data
	// servers. It is kept only because benchmark/probes.go sets it.
	Shards int
	// EpochInterval is the GCP epoch length (the paper uses 1s; tests and
	// benchmarks use shorter epochs).
	EpochInterval time.Duration
	// SyncCommit forces a flush before commit returns (durability
	// notification == commit notification). Default is asynchronous
	// flushing. A synchronous commit waits for the batch its record was
	// coalesced into — one fsync serves every committer in the batch.
	SyncCommit bool
	// Observer, when non-nil, is called after every coalesced batch
	// append with the number of transaction records, the append(+flush)
	// latency and any error. The engine wires this to its batch-size /
	// flush-latency counters.
	Observer func(records int, d time.Duration, err error)
	// CrashHook, when non-nil, runs at every crash and fault point: the
	// appender's append (records set, before the marker and the fsync),
	// flush and seal (after a batch's fsync), and, from Open on, every
	// point of the log store (kvstore's package comment). Crash tests copy
	// the log directory inside the hook — the state a process kill there
	// would leave — and recover the copy. Fault tests return an error: at a
	// store point it replaces the call there, and in the appender it fails
	// the batch as a write error would, so the log is poisoned (Err). Nil
	// in production.
	CrashHook func(point string) error
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

	// stageMu is the stage lock: one exclusive section for each commit
	// point with its record's staging, each epoch seal and Close. Inside it
	// a stager runs the caller's commit point, reads the epoch and sends the
	// record, so
	//
	//   - records reach the appender's FIFO in commit-point order: a reader
	//     of a transaction's writes stages behind it;
	//   - a record carrying epoch e is in the queue before flushEpoch —
	//     which advances the epoch and enqueues the seal under the same lock
	//     — can seal e, so it is flushed before the frontier covers it;
	//   - nobody sends on the queue after Close closed it; later stagers
	//     fail with errClosed.
	stageMu sync.Mutex
	closed  bool

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
	{"snap-*.kv", "snapshot-file checkpoint layout"},
}

// openLog opens dir's log, for Open and Recover alike, after refusing the
// old layouts.
func openLog(dir string) (*kvstore.Store, error) {
	for _, o := range oldLayouts {
		if old, _ := filepath.Glob(filepath.Join(dir, o.glob)); len(old) > 0 {
			return nil, fmt.Errorf("wal: %s holds %d files of the %s (%s, ...); this version keeps its checkpoints inside one %s and cannot read them",
				dir, len(old), o.layout, filepath.Base(old[0]), logName)
		}
	}
	return kvstore.Open(filepath.Join(dir, logName))
}

// Open opens dir's log and recovers it in one scan (recovery.go): the state
// it finds waits in Recovered, and the Manager resumes the epoch marker from
// the same pass. The epoch counter starts past the frontier marker, so no
// record staged from now on belongs to an epoch the log already calls
// sealed.
func Open(opts Options) (*Manager, error) {
	if opts.EpochInterval <= 0 {
		opts.EpochInterval = time.Second
	}
	st, ls, err := load(opts.Dir)
	if err != nil {
		return nil, err
	}
	if opts.CrashHook != nil {
		st.SetCrashHook(opts.CrashHook)
	}
	if ls.rec.Discarded > 0 {
		// Records whose epoch the frontier does not cover were discarded;
		// once this life seals past their epoch they would look durable.
		// Drop them by their own epoch before anything is appended.
		c := compaction{unsealed: true, frontier: ls.frontier}
		if _, _, err := st.Rewrite(nil, c.keep); err != nil {
			return nil, errors.Join(err, st.Close())
		}
	}
	m := &Manager{opts: opts, st: st, durableEpoch: ls.frontier, stop: make(chan struct{}), done: make(chan struct{})}
	m.durableCond = sync.NewCond(&m.mu)
	m.recovered.Store(ls.rec)
	m.app = newAppender(m)
	m.app.marker = ls.frontier
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

func (m *Manager) hook(point string) error {
	if m.opts.CrashHook == nil {
		return nil
	}
	return m.opts.CrashHook(point)
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
// closed. Called with stageMu held.
func (m *Manager) unusable() error {
	if err := m.Err(); err != nil {
		return err
	}
	if m.closed {
		return errClosed
	}
	return nil
}

// Stage logs a committing transaction: it encodes the transaction's one
// record from its write set, then, inside the stage lock, runs commitPoint,
// stamps the record with the commit timestamp it returns and the current
// epoch, and hands it to the appender. It never waits for the record: commit
// notification is decoupled from durable notification (§4.5.4) even under
// SyncCommit, where the caller decides when to block on the returned ticket —
// the engine releases CC state first, then waits, so the log never throttles
// concurrency control. The ticket completes once the record is appended, and
// flushed under SyncCommit.
//
// On a poisoned or closed log, and for a record over the limit (ErrTooLarge),
// commitPoint never runs and the error is returned with a nil ticket: the
// transaction can still abort cleanly.
func (m *Manager) Stage(txnID uint64, writes []core.WriteRef, commitPoint func() uint64) (*Ticket, error) {
	rec, err := encodeRecord(txnID, len(writes), func(i int) (core.Key, []byte) {
		return writes[i].Chain.Key, writes[i].V.Value
	})
	if err != nil {
		return nil, err
	}
	tk := newTicket()
	if err := m.stage(rec, 0, tk, commitPoint); err != nil {
		return nil, err
	}
	return tk, nil
}

// Precommit and Commit are Stage in two calls, for callers without a commit
// point of their own. Precommit stages nothing: it returns the current epoch
// and a ticket that holds the writes (their data-server keys do not matter to
// the log) until Commit. The writes' values are not copied before Commit.
func (m *Manager) Precommit(txnID uint64, writesByShard map[int][]KV) (uint64, *Ticket, error) {
	if err := m.Err(); err != nil {
		return 0, nil, err
	}
	n := 0
	for _, kvs := range writesByShard {
		n += len(kvs)
	}
	tk := newTicket()
	tk.writes = make([]KV, 0, n)
	for _, kvs := range writesByShard {
		tk.writes = append(tk.writes, kvs...)
	}
	return m.Epoch(), tk, nil
}

// Commit stages txnID's one record, holding the writes Precommit left in tk,
// at commitTS. epoch is a lower bound only: the record carries the epoch
// current when it is staged, or epoch if that is larger. An error means the
// record was not staged (the log is poisoned or closed, or the record is
// over the limit); the ticket completes with it.
func (m *Manager) Commit(txnID, commitTS, epoch uint64, tk *Ticket) error {
	rec, err := encodeRecord(txnID, len(tk.writes), func(i int) (core.Key, []byte) {
		return tk.writes[i].Key, tk.writes[i].Value
	})
	tk.writes = nil
	if err == nil {
		err = m.stage(rec, epoch, tk, func() uint64 { return commitTS })
	}
	if err != nil {
		tk.complete(err)
	}
	return err
}

// stage is the exclusive section behind Stage and Commit. An error means
// the record was not staged and commitPoint did not run.
func (m *Manager) stage(rec []byte, minEpoch uint64, tk *Ticket, commitPoint func() uint64) error {
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	if err := m.unusable(); err != nil {
		return err
	}
	commitTS := commitPoint()
	// The epoch MUST be read under the stage lock: otherwise a seal of this
	// epoch could slip between the read and the send, and the record would
	// miss the flush its epoch promises.
	epoch := max(minEpoch, m.epoch.Load())
	binary.LittleEndian.PutUint64(rec[8:16], commitTS)
	binary.LittleEndian.PutUint64(rec[16:24], epoch)
	m.app.ch <- appendReq{kind: recTxn, payload: rec, epoch: epoch, tk: tk}
	return nil
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
	// A failed seal poisons the log (Manager.Err), which Close, every later
	// stager and WaitDurable report, so its error is not kept here; the
	// final seal must not block Close.
	for {
		select {
		case <-m.stop:
			m.flushEpoch()
			return
		case <-t.C:
			m.flushEpoch()
		}
	}
}

func (m *Manager) flushEpoch() error {
	// Advance the epoch and enqueue the seal under the stage lock: stagers
	// read the epoch and send their records under it too, so every record
	// carrying epoch <= cur is already in the appender's queue (FIFO, ahead
	// of the seal) — otherwise WaitDurable(cur) would lie.
	m.stageMu.Lock()
	if err := m.unusable(); err != nil {
		m.stageMu.Unlock()
		return err
	}
	cur := m.epoch.Add(1) - 1 // seal epoch `cur`, open the next
	tk := newTicket()
	m.app.ch <- appendReq{kind: recSeal, epoch: cur, tk: tk}
	m.stageMu.Unlock()
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
	m.stageMu.Lock()
	if !m.closed {
		m.closed = true
		close(m.app.ch)
	}
	m.stageMu.Unlock()
	<-m.app.exited
	err := m.st.Close()
	if ferr := m.Err(); ferr != nil {
		return ferr
	}
	return err
}

// recHeader is the fixed part of a transaction record; commitTS and epoch
// sit at fixed offsets so the stager can fill them in at the commit point.
const recHeader = 8 + 8 + 8 + 4

// encodeRecord encodes a transaction's log record with commitTS and epoch
// left zero; write(i) is its i-th write of n:
//
//	u64 txnID | u64 commitTS | u64 epoch | u32 count |
//	repeat: u32 len, table | u32 len, row | u32 len, value
//
// A record over the store's limit is refused before anything is encoded.
func encodeRecord(txnID uint64, n int, write func(i int) (core.Key, []byte)) ([]byte, error) {
	size := recHeader
	for i := 0; i < n; i++ {
		k, v := write(i)
		size += 12 + len(k.Table) + len(k.Row) + len(v)
	}
	if size > kvstore.MaxValueLen {
		return nil, fmt.Errorf("%w: transaction %d's would be %d", ErrTooLarge, txnID, size)
	}
	le := binary.LittleEndian
	rec := make([]byte, recHeader, size)
	le.PutUint64(rec, txnID)
	le.PutUint32(rec[24:], uint32(n))
	for i := 0; i < n; i++ {
		k, v := write(i)
		rec = append(le.AppendUint32(rec, uint32(len(k.Table))), k.Table...)
		rec = append(le.AppendUint32(rec, uint32(len(k.Row))), k.Row...)
		rec = append(le.AppendUint32(rec, uint32(len(v))), v...)
	}
	return rec, nil
}

// record is one decoded transaction record. Its values alias the buffer it
// was decoded from.
type record struct {
	txnID, commitTS, epoch uint64
	writes                 []KV
}

var errTruncatedRecord = errors.New("wal: truncated transaction record")

func decodeRecord(buf []byte) (record, error) {
	le := binary.LittleEndian
	if len(buf) < recHeader {
		return record{}, errTruncatedRecord
	}
	r := record{txnID: le.Uint64(buf), commitTS: le.Uint64(buf[8:]), epoch: le.Uint64(buf[16:])}
	count := int(le.Uint32(buf[24:]))
	off := recHeader
	field := func() ([]byte, bool) {
		if off+4 > len(buf) {
			return nil, false
		}
		n := int(le.Uint32(buf[off:]))
		off += 4
		if n > len(buf)-off {
			return nil, false
		}
		off += n
		return buf[off-n : off], true
	}
	r.writes = make([]KV, 0, min(count, len(buf)/12))
	for i := 0; i < count; i++ {
		tbl, ok1 := field()
		row, ok2 := field()
		val, ok3 := field()
		if !ok1 || !ok2 || !ok3 {
			return record{}, errTruncatedRecord
		}
		r.writes = append(r.writes, KV{Key: core.Key{Table: string(tbl), Row: string(row)}, Value: val})
	}
	if off != len(buf) {
		return record{}, errors.New("wal: trailing bytes after a transaction record")
	}
	return r, nil
}
