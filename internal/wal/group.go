package wal

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
)

func appendU32(b []byte, v uint32) []byte {
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], v)
	return append(b, u[:]...)
}

func u32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// Record kinds inside the pipeline. Seals and checkpoint markers never reach
// the log as batch entries; a seal instructs the appender to flush and
// advance the shard's epoch marker, a checkpoint marker to persist the
// shard's checkpoint frontier.
const (
	recSeal       byte = 0 // no payload; epoch = the GCP epoch to seal
	recPrecommit  byte = 1 // payload = encodePrecommit(...)
	recCommit     byte = 2 // payload = 24 bytes: txnID, commitTS, epoch
	recCheckpoint byte = 3 // payload = 16 bytes: checkpoint id, snapshot TS
	recAbort      byte = 4 // payload = 8 bytes: txnID (commit will never come)
)

// Ticket tracks one transaction's log records through the group-commit
// pipeline. It completes once every enqueued record (the precommit record
// on each participating data server plus the coordinator's commit record)
// has been appended — and, under SyncCommit, flushed. With asynchronous
// durability nothing waits on a ticket: commit notification stays decoupled
// from durable notification (§4.5.4), and WaitDurable remains the durable
// notification.
type Ticket struct {
	remaining atomic.Int32
	done      chan struct{}
	errp      atomic.Pointer[error]
}

func newTicket(n int32) *Ticket {
	tk := &Ticket{done: make(chan struct{})}
	tk.remaining.Store(n)
	return tk
}

// complete marks one of the ticket's records as appended. The first error
// wins; the done channel closes when all records are in.
func (tk *Ticket) complete(err error) {
	if err != nil {
		tk.errp.CompareAndSwap(nil, &err)
	}
	if tk.remaining.Add(-1) == 0 {
		close(tk.done)
	}
}

// Done returns a channel closed when every record has been appended (and
// flushed, under SyncCommit).
func (tk *Ticket) Done() <-chan struct{} { return tk.done }

// Wait blocks until the ticket completes and returns the first append error.
func (tk *Ticket) Wait() error {
	<-tk.done
	return tk.Err()
}

// Err returns the first append error observed so far (non-blocking).
func (tk *Ticket) Err() error {
	if p := tk.errp.Load(); p != nil {
		return *p
	}
	return nil
}

// appendReq is one record handed to a per-shard appender.
type appendReq struct {
	kind    byte
	payload []byte
	epoch   uint64
	tk      *Ticket
}

// appender is one data server's log appender: it drains its queue,
// coalesces everything waiting into a single batch record, appends it with
// one Set and — under SyncCommit — one fsync shared by every waiter in the
// batch (leader/follower group commit; the "leader" is the appender
// goroutine, committers are all followers).
type appender struct {
	m      *Manager
	shard  int
	st     *kvstore.Store
	ch     chan appendReq
	seq    uint64
	marker uint64 // newest epoch marker written to this shard's log
	exited chan struct{}
}

func newAppender(m *Manager, shard int, st *kvstore.Store) *appender {
	return &appender{
		m:      m,
		shard:  shard,
		st:     st,
		ch:     make(chan appendReq, 4096),
		exited: make(chan struct{}),
	}
}

// maxBatchBytes bounds one coalesced batch record's payload bytes, well
// under the kvstore replay cap (64MiB per value) — a batch value crossing
// that cap would be treated as a torn tail at recovery and silently
// discard acknowledged commits.
const maxBatchBytes = 8 << 20

// run is the appender loop. Batching is "natural": while one batch is being
// appended (and fsynced), new requests pile up in the channel; the next
// iteration takes them all, bounded by MaxBatch records and maxBatchBytes
// payload. The loop exits when the channel is closed and drained.
func (a *appender) run() {
	defer close(a.exited)
	var buf []appendReq
	for {
		req, ok := <-a.ch
		if !ok {
			return
		}
		batch := append(buf[:0], req)
		bytes := len(req.payload)
		closed := false
	drain:
		for len(batch) < a.m.maxBatch && bytes < maxBatchBytes {
			select {
			case r, ok := <-a.ch:
				if !ok {
					closed = true
					break drain
				}
				batch = append(batch, r)
				bytes += len(r.payload)
			default:
				break drain
			}
		}
		a.flush(batch)
		buf = batch
		if closed {
			return
		}
	}
}

// flush appends the batch's records as one coalesced batch record, advances
// the shard's epoch marker when required, fsyncs once for the whole batch,
// and completes every ticket.
//
// The appender is the sole writer of its shard's epoch marker, so the
// marker is monotone by construction:
//
//   - a seal request (the GCP epoch tick, §4.5.4) flushes everything
//     appended so far and advances the marker to the sealed epoch — FIFO
//     order guarantees every record staged while that epoch was open
//     precedes the seal;
//   - under SyncCommit every batch carries its records' epochs forward in
//     the same fsync, so an acknowledged commit is recoverable immediately
//     rather than at the next epoch tick. A record of the same epoch still
//     queued at crash time is simply absent and its transaction is
//     discarded by the missing-record rules — and its committer was never
//     acknowledged.
func (a *appender) flush(batch []appendReq) {
	var records, seals, cks int
	var maxEpoch uint64
	for _, r := range batch {
		switch r.kind {
		case recSeal:
			seals++
			if r.epoch > maxEpoch {
				maxEpoch = r.epoch
			}
		case recCheckpoint:
			cks++
		default:
			records++
			if a.m.opts.SyncCommit && r.epoch > maxEpoch {
				maxEpoch = r.epoch
			}
		}
	}
	var err error
	start := time.Now()
	if records > 0 {
		key := fmt.Sprintf("b/%d/%d", a.shard, a.seq)
		a.seq++
		err = a.st.Set(key, encodeBatch(batch, records))
		a.m.hook("append")
	}
	if err == nil && maxEpoch > a.marker {
		// The marker is appended after the records it covers, so a torn
		// tail can lose the marker (conservative) but never persist a
		// marker ahead of its records.
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], maxEpoch)
		if err = a.st.Set(fmt.Sprintf("e/%d", a.shard), buf[:]); err == nil {
			a.marker = maxEpoch
		}
	}
	if err == nil && cks > 0 {
		// Checkpoint frontier markers are appended after every record
		// staged before them (FIFO), and the sync below makes the whole
		// log prefix durable with the marker — the frontier can never
		// claim coverage of records that were lost with the buffer.
		for _, r := range batch {
			if r.kind != recCheckpoint {
				continue
			}
			if err = a.st.Set(fmt.Sprintf("ck/%d", a.shard), r.payload); err != nil {
				break
			}
		}
	}
	if err == nil && (seals > 0 || cks > 0 || (records > 0 && a.m.opts.SyncCommit)) {
		err = a.st.Sync()
		if seals > 0 {
			a.m.hook("seal")
		} else {
			a.m.hook("flush")
		}
	}
	if records > 0 {
		a.m.observe(records, time.Since(start), err)
	}
	for _, r := range batch {
		r.tk.complete(err)
	}
}

// encodeBatch packs the batch's payload-bearing records into one value:
//
//	u32 count | repeat: u8 kind, u32 len, payload
//
// batchEntryKind reports whether a pipeline record kind is persisted as a
// coalesced batch entry (seals and checkpoint markers are control requests,
// not log content).
func batchEntryKind(k byte) bool {
	return k == recPrecommit || k == recCommit || k == recAbort
}

func encodeBatch(batch []appendReq, records int) []byte {
	size := 4
	for _, r := range batch {
		if batchEntryKind(r.kind) {
			size += 1 + 4 + len(r.payload)
		}
	}
	buf := make([]byte, 0, size)
	buf = appendU32(buf, uint32(records))
	for _, r := range batch {
		if !batchEntryKind(r.kind) {
			continue
		}
		buf = append(buf, r.kind)
		buf = appendU32(buf, uint32(len(r.payload)))
		buf = append(buf, r.payload...)
	}
	return buf
}

// encodeBatchEntries re-packs surviving batch entries after compaction
// filtered out entries belonging to checkpoint-covered transactions.
func encodeBatchEntries(entries []batchEntry) []byte {
	size := 4
	for _, e := range entries {
		size += 1 + 4 + len(e.payload)
	}
	buf := make([]byte, 0, size)
	buf = appendU32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = append(buf, e.kind)
		buf = appendU32(buf, uint32(len(e.payload)))
		buf = append(buf, e.payload...)
	}
	return buf
}

type batchEntry struct {
	kind    byte
	payload []byte
}

// decodeBatch unpacks a coalesced batch record; recovery replays each entry
// as if it were an individual precommit/commit record.
func decodeBatch(buf []byte) ([]batchEntry, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("wal: truncated batch record")
	}
	count := int(u32(buf))
	off := 4
	out := make([]batchEntry, 0, count)
	for i := 0; i < count; i++ {
		if off+5 > len(buf) {
			return nil, fmt.Errorf("wal: truncated batch entry")
		}
		kind := buf[off]
		n := int(u32(buf[off+1:]))
		off += 5
		if off+n > len(buf) {
			return nil, fmt.Errorf("wal: truncated batch payload")
		}
		out = append(out, batchEntry{kind: kind, payload: buf[off : off+n]})
		off += n
	}
	return out, nil
}
