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
//   - Appends go through a per-data-server group-commit pipeline
//     (group.go): concurrent committers' precommit and commit records are
//     coalesced into one batch record per appender turn, written with a
//     single Set and — under SyncCommit — a single fsync shared by every
//     committer in the batch, so the log never throttles concurrency
//     control even when commit notification is coupled to durability.
//   - Recovery retrieves the logs, replays both coalesced batch records
//     and individual records, discards transactions with missing
//     precommit records or with an epoch beyond a server's durable
//     frontier, and reconstructs the latest committed version of every key;
//     CC-internal state is rebuilt implicitly (the fresh CC tree treats
//     recovered data as committed history).
//
// Persistence is outsourced to internal/kvstore through a key-value
// interface, as the paper outsources it to Redis/RocksDB.
package wal

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
)

// Options configure the durability module.
type Options struct {
	// Dir is the directory holding per-data-server log stores.
	Dir string
	// Shards is the number of data servers.
	Shards int
	// EpochInterval is the GCP epoch length (the paper uses 1s; tests and
	// benchmarks use shorter epochs).
	EpochInterval time.Duration
	// SyncCommit forces a flush before commit returns (durability
	// notification == commit notification). Default is asynchronous
	// flushing. Under the group-commit pipeline a synchronous commit
	// waits for the batch its records were coalesced into — one fsync
	// serves every committer in the batch.
	SyncCommit bool
	// MaxBatch bounds how many records one appender coalesces into a
	// single batch append (default 256).
	MaxBatch int
	// Observer, when non-nil, is called after every coalesced batch
	// append with the number of records, the append(+flush) latency and
	// any error. The engine wires this to its batch-size / flush-latency
	// counters.
	Observer func(records int, d time.Duration, err error)
	// CrashHook, when non-nil, is invoked at every durability-critical
	// boundary (append, flush, seal, checkpoint snapshot/frontier/manifest
	// and the compaction write/sync/rename inside kvstore). Crash-point
	// torture tests copy the log directory inside the hook — the copy is
	// exactly the state a process kill at that boundary would leave — and
	// assert recovery from it. Nil in production.
	CrashHook func(point string)
}

// KV is one logged write.
type KV struct {
	Key   core.Key
	Value []byte
}

// Manager is the durability module. Appends go through per-data-server
// group-commit appenders (group.go): concurrent committers' precommit and
// commit records are coalesced into one batch record per shard, appended
// and flushed together.
type Manager struct {
	opts      Options
	stores    []*kvstore.Store
	appenders []*appender
	maxBatch  int
	seq       atomic.Uint64
	epoch     atomic.Uint64

	mu           sync.Mutex
	durableEpoch uint64
	durableCond  *sync.Cond

	// closeMu serializes pipeline submission against epoch seals and
	// Close. Stagers (Precommit/Commit) hold the read side across the
	// epoch read AND the channel sends, so a record carrying epoch e is
	// always in its appender's queue before flushEpoch — which holds the
	// write side while advancing the epoch and enqueueing the seal
	// requests — can seal e; FIFO then guarantees the record is flushed
	// before the durable frontier covers it. Close also holds the write
	// side while marking the pipeline closed and closing the appender
	// queues; after close, submissions fall back to direct synchronous
	// appends. Checkpoint stages frontier markers through the pipeline
	// while holding ckMu, so the read side nests inside it.
	//
	// tebaldi:locks after wal.Manager.ckMu
	closeMu sync.RWMutex
	closed  bool

	// ckMu serializes checkpoints; ckSeq is the last completed checkpoint
	// id (resumed from the manifest on reopen).
	ckMu  sync.Mutex
	ckSeq uint64

	stop chan struct{}
	done chan struct{}
}

// Open creates or reopens the durability module.
func Open(opts Options) (*Manager, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.EpochInterval <= 0 {
		opts.EpochInterval = time.Second
	}
	m := &Manager{opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	m.maxBatch = opts.MaxBatch
	if m.maxBatch <= 0 {
		m.maxBatch = 256
	}
	m.durableCond = sync.NewCond(&m.mu)
	for i := 0; i < opts.Shards; i++ {
		st, err := kvstore.Open(filepath.Join(opts.Dir, fmt.Sprintf("ds-%03d.log", i)))
		if err != nil {
			for _, s := range m.stores {
				//lint:allow syncerr -- best-effort teardown of untouched stores while Open fails loudly with the shard error
				s.Close()
			}
			return nil, err
		}
		if opts.CrashHook != nil {
			st.SetCrashHook(opts.CrashHook)
		}
		m.stores = append(m.stores, st)
	}
	man, err := readManifest(opts.Dir)
	if err != nil {
		// A malformed manifest means outside interference; resuming with
		// ckSeq 0 would republish low checkpoint ids over newer snapshot
		// files. Fail loudly, like Recover does.
		for _, s := range m.stores {
			//lint:allow syncerr -- best-effort teardown; the malformed-manifest error is the one the caller must see
			s.Close()
		}
		return nil, err
	}
	if man != nil {
		m.ckSeq = man.ID
	}
	for i, st := range m.stores {
		a := newAppender(m, i, st)
		if b := st.Get(fmt.Sprintf("e/%d", i)); len(b) == 8 {
			// Resume monotone from the reopened log's marker.
			a.marker = binary.LittleEndian.Uint64(b)
		}
		// Resume the batch sequence past every existing batch record:
		// b/<shard>/<seq> keys are latest-wins in the kvstore, so a
		// restarted counter would silently overwrite earlier batches
		// and lose their transactions at recovery.
		prefix := fmt.Sprintf("b/%d/", i)
		st.ForEach(func(key string, _ []byte) error {
			if strings.HasPrefix(key, prefix) {
				if seq, err := strconv.ParseUint(key[len(prefix):], 10, 64); err == nil && seq >= a.seq {
					a.seq = seq + 1
				}
			}
			return nil
		})
		m.appenders = append(m.appenders, a)
		go a.run()
	}
	m.epoch.Store(1)
	go m.flusher()
	return m, nil
}

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

// Precommit stages a precommit record on every participating data server's
// appender and returns the transaction's global epoch id (max of
// participant epochs — with one process-wide epoch counter they coincide)
// plus the Ticket tracking the transaction's records through the pipeline.
// writesByShard maps data server index -> the transaction's writes owned by
// that server. The ticket is sized for the precommit records plus the
// coordinator commit record that Commit enqueues later.
func (m *Manager) Precommit(txnID uint64, writesByShard map[int][]KV) (uint64, *Ticket, error) {
	n := len(writesByShard)
	tk := newTicket(int32(n) + 1)
	m.closeMu.RLock()
	// The epoch MUST be read under the stage/seal lock: otherwise a seal
	// of this epoch could slip between the read and the sends, and the
	// records would miss the flush their epoch promises.
	epoch := m.epoch.Load()
	if m.closed {
		m.closeMu.RUnlock()
		// Pipeline shut down (close racing a late committer): append
		// directly, as the pre-pipeline protocol did.
		var first error
		done := 0
		for shard, kvs := range writesByShard {
			rec := encodePrecommit(txnID, epoch, n, kvs)
			err := m.stores[shard].Set(fmt.Sprintf("p/%d/%d", txnID, shard), rec)
			tk.complete(err)
			done++
			if err != nil && first == nil {
				first = err
			}
		}
		if first != nil {
			// The caller aborts; drain the ticket's remaining slots
			// (unwritten shards + the never-staged commit record) so
			// Wait/Done can never hang on this ticket.
			for ; done < n+1; done++ {
				tk.complete(first)
			}
			return 0, tk, first
		}
		return epoch, tk, nil
	}
	for shard, kvs := range writesByShard {
		m.appenders[shard].ch <- appendReq{
			kind:    recPrecommit,
			payload: encodePrecommit(txnID, epoch, n, kvs),
			epoch:   epoch,
			tk:      tk,
		}
	}
	m.closeMu.RUnlock()
	return epoch, tk, nil
}

// Commit stages the coordinator's commit record (each transaction's
// coordinator log lives on the data server picked by its id, spreading the
// append load) on the pipeline and returns without waiting: commit
// notification is decoupled from durable notification (§4.5.4) even under
// SyncCommit, where the caller decides when to block on the ticket — the
// engine releases CC state first, then waits, so the log never throttles
// concurrency control. Ticket.Wait returns once the transaction's whole
// record set — precommit records included, since appenders are FIFO — is
// appended, and flushed under SyncCommit.
func (m *Manager) Commit(txnID, commitTS, epoch uint64, tk *Ticket) error {
	shard := int(txnID) % len(m.stores)
	m.closeMu.RLock()
	// The participant epoch from Precommit may already be sealed by the
	// time the commit record is staged; bump the record to the current
	// epoch (read under the stage/seal lock) so the epoch-frontier rule
	// stays sound — recovery becomes conservative (the transaction is
	// classified into a later, possibly unsealed epoch), never wrong.
	if cur := m.epoch.Load(); cur > epoch {
		epoch = cur
	}
	if m.closed {
		m.closeMu.RUnlock()
		rec := make([]byte, 16)
		binary.LittleEndian.PutUint64(rec[0:8], commitTS)
		binary.LittleEndian.PutUint64(rec[8:16], epoch)
		start := time.Now()
		err := m.stores[shard].Set(fmt.Sprintf("c/%d", txnID), rec)
		if err == nil && m.opts.SyncCommit {
			err = m.syncStores()
		}
		// Route through the observer so fallback appends share the
		// pipeline's accounting (including the error counter).
		m.observe(1, time.Since(start), err)
		tk.complete(err)
		return err
	}
	payload := make([]byte, 24)
	binary.LittleEndian.PutUint64(payload[0:8], txnID)
	binary.LittleEndian.PutUint64(payload[8:16], commitTS)
	binary.LittleEndian.PutUint64(payload[16:24], epoch)
	m.appenders[shard].ch <- appendReq{kind: recCommit, payload: payload, epoch: epoch, tk: tk}
	m.closeMu.RUnlock()
	return nil
}

// Abort stages abort markers on the given data servers for a transaction
// whose precommit records were staged but whose commit record will never be
// (the engine's force-abort between precommit staging and the commit
// point). Recovery discards commit-less transactions either way; the marker
// exists so checkpoint compaction can reclaim the orphaned precommit
// records instead of carrying them forever. Fire-and-forget: nothing waits
// on the staged records.
func (m *Manager) Abort(txnID uint64, shards []int) {
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, txnID)
	m.closeMu.RLock()
	epoch := m.epoch.Load()
	if m.closed {
		m.closeMu.RUnlock()
		for _, shard := range shards {
			m.stores[shard].Set(fmt.Sprintf("a/%d/%d", txnID, shard), payload)
		}
		return
	}
	tk := newTicket(int32(len(shards)))
	for _, shard := range shards {
		m.appenders[shard].ch <- appendReq{kind: recAbort, payload: payload, epoch: epoch, tk: tk}
	}
	m.closeMu.RUnlock()
}

// WaitDurable blocks until epoch is fully persisted (the durable
// notification of §4.5.4).
func (m *Manager) WaitDurable(epoch uint64) {
	m.mu.Lock()
	for m.durableEpoch < epoch {
		m.durableCond.Wait()
	}
	m.mu.Unlock()
}

// flusher advances GCP epochs: flush + fsync all stores, persist the epoch
// marker, publish the durable frontier.
func (m *Manager) flusher() {
	defer close(m.done)
	t := time.NewTicker(m.opts.EpochInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			//lint:allow syncerr -- seal failures reach the appenders' Observer (stats.walErrors); the final flush must not block Close
			m.flushEpoch()
			return
		case <-t.C:
			//lint:allow syncerr -- seal failures reach the appenders' Observer (stats.walErrors); the ticker must keep advancing epochs
			m.flushEpoch()
		}
	}
}

// syncStores flushes and fsyncs every store (closed-pipeline fallback).
func (m *Manager) syncStores() error {
	for _, st := range m.stores {
		if err := st.Sync(); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) flushEpoch() error {
	// Advance the epoch and enqueue the seals under the write side of
	// the stage/seal lock: stagers read the epoch and send their records
	// under the read side, so every record carrying epoch <= cur is
	// already in its appender's queue (FIFO, ahead of the seal) —
	// otherwise WaitDurable(cur) would lie.
	m.closeMu.Lock()
	cur := m.epoch.Add(1) - 1 // seal epoch `cur`, open the next
	if m.closed {
		m.closeMu.Unlock()
		// Pipeline shut down: seal directly (the appenders have
		// drained and exited).
		for i, st := range m.stores {
			if err := st.Sync(); err != nil {
				return err
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], cur)
			if err := st.Set(fmt.Sprintf("e/%d", i), buf[:]); err != nil {
				return err
			}
			if err := st.Sync(); err != nil {
				return err
			}
		}
	} else {
		tk := newTicket(int32(len(m.appenders)))
		for _, a := range m.appenders {
			a.ch <- appendReq{kind: recSeal, epoch: cur, tk: tk}
		}
		m.closeMu.Unlock()
		// Wait outside the lock: the appenders do the flushing, and
		// stagers must be free to pile the next epoch's records in
		// behind the seals meanwhile.
		if err := tk.Wait(); err != nil {
			return err
		}
	}
	m.mu.Lock()
	if cur > m.durableEpoch {
		m.durableEpoch = cur
	}
	m.durableCond.Broadcast()
	m.mu.Unlock()
	return nil
}

// Close drains the group-commit pipeline, flushes outstanding records and
// closes the stores.
func (m *Manager) Close() error {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done // flusher has run the final flushEpoch (incl. barrier)
	m.closeMu.Lock()
	if !m.closed {
		m.closed = true
		for _, a := range m.appenders {
			close(a.ch)
		}
	}
	m.closeMu.Unlock()
	for _, a := range m.appenders {
		<-a.exited
	}
	var first error
	for _, st := range m.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func encodePrecommit(txnID, epoch uint64, nShards int, kvs []KV) []byte {
	size := 8 + 8 + 4 + 4
	for _, kv := range kvs {
		size += 4 + len(kv.Key.Table) + 4 + len(kv.Key.Row) + 4 + len(kv.Value)
	}
	buf := make([]byte, 0, size)
	var u64 [8]byte
	var u32 [4]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		buf = append(buf, u64[:]...)
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf = append(buf, u32[:]...)
	}
	putBytes := func(b []byte) {
		put32(uint32(len(b)))
		buf = append(buf, b...)
	}
	put64(txnID)
	put64(epoch)
	put32(uint32(nShards))
	put32(uint32(len(kvs)))
	for _, kv := range kvs {
		putBytes([]byte(kv.Key.Table))
		putBytes([]byte(kv.Key.Row))
		putBytes(kv.Value)
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
