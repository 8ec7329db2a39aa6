package wal

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Record kinds inside the pipeline. Seals and checkpoint markers never reach
// the log as batch entries; a seal instructs the appender to flush and
// advance the epoch marker, a checkpoint marker to persist the checkpoint
// frontier.
const (
	recSeal       byte = 0 // no payload; epoch = the GCP epoch to seal
	recPrecommit  byte = 1 // payload = appendPrecommit(...)
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

// appendReq is one request handed to the appender. Entries decoded back out
// of a batch record carry only kind and payload.
type appendReq struct {
	kind    byte
	payload []byte
	epoch   uint64
	tk      *Ticket
}

// logDevice is what the appender needs of the log store. *kvstore.Store is
// the only implementation outside tests, which substitute a failing one.
type logDevice interface {
	Set(key string, value []byte) error
	Sync() error
}

// appender is the log's single writer: it drains its queue, coalesces
// everything waiting into one batch record, appends it with one Set and —
// under SyncCommit — one fsync shared by every waiter in the batch
// (leader/follower group commit; the "leader" is the appender goroutine,
// committers are all followers).
type appender struct {
	m      *Manager
	dev    logDevice
	ch     chan appendReq
	seq    uint64 // next batch key
	marker uint64 // newest epoch marker written to the log
	key    []byte // reused batch-key, batch-value and marker buffers
	enc    []byte
	mark   [8]byte
	exited chan struct{}
}

func newAppender(m *Manager, dev logDevice) *appender {
	return &appender{
		m:   m,
		dev: dev,
		// Deep enough that stagers, who send while holding the stage/seal
		// lock, do not block behind an fsync: a few hundred committers
		// times the records of one transaction each.
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
		for len(batch) < a.m.opts.MaxBatch && bytes < maxBatchBytes {
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
// the epoch marker when required, fsyncs once for the whole batch, and
// completes every ticket. Once the log is poisoned it only completes
// tickets, with the sticky error.
func (a *appender) flush(batch []appendReq) {
	var records int
	var sealed, sync bool
	var maxEpoch uint64
	var ck []byte
	for _, r := range batch {
		switch r.kind {
		case recSeal:
			sealed, sync = true, true
			maxEpoch = max(maxEpoch, r.epoch)
		case recCheckpoint:
			ck, sync = r.payload, true
		default:
			records++
			if a.m.opts.SyncCommit {
				sync = true
				maxEpoch = max(maxEpoch, r.epoch)
			}
		}
	}
	start := time.Now()
	err := a.m.Err()
	if err == nil {
		if err = a.write(batch, records, maxEpoch, ck, sync); err != nil {
			err = a.m.fail(err)
		} else if sealed {
			a.m.hook("seal")
		} else if sync {
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

// write puts one batch on the device. The appender is the sole writer of the
// epoch marker, so the marker is monotone by construction:
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
//
// Both markers are appended after the records they cover, so a torn tail
// can lose a marker (conservative) but never persist one ahead of its
// records; a checkpoint frontier marker follows every record staged before
// it (FIFO), and the sync makes the whole log prefix durable with it.
func (a *appender) write(batch []appendReq, records int, maxEpoch uint64, ck []byte, sync bool) error {
	if records > 0 {
		a.key = strconv.AppendUint(append(a.key[:0], batchPrefix...), a.seq, 10)
		a.seq++
		a.enc = appendBatch(a.enc[:0], batch, records)
		if err := a.dev.Set(string(a.key), a.enc); err != nil {
			return err
		}
		a.m.hook("append")
	}
	if maxEpoch > a.marker {
		binary.LittleEndian.PutUint64(a.mark[:], maxEpoch)
		if err := a.dev.Set(epochKey, a.mark[:]); err != nil {
			return err
		}
		a.marker = maxEpoch
	}
	if ck != nil {
		if err := a.dev.Set(ckKey, ck); err != nil {
			return err
		}
	}
	if sync {
		return a.dev.Sync()
	}
	return nil
}

// batchEntryKind reports whether a pipeline record kind is persisted as a
// coalesced batch entry (seals and checkpoint markers are control requests,
// not log content).
func batchEntryKind(k byte) bool {
	return k == recPrecommit || k == recCommit || k == recAbort
}

// appendBatch packs the batch's `records` payload-bearing records into one
// value:
//
//	u32 count | repeat: u8 kind, u32 len, payload
func appendBatch(buf []byte, batch []appendReq, records int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(records))
	for _, r := range batch {
		if batchEntryKind(r.kind) {
			buf = append(buf, r.kind)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.payload)))
			buf = append(buf, r.payload...)
		}
	}
	return buf
}

// decodeBatch unpacks a coalesced batch record; recovery replays each entry
// as an individual precommit/commit record. Payloads alias buf.
func decodeBatch(buf []byte) ([]appendReq, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("wal: truncated batch record")
	}
	count := int(binary.LittleEndian.Uint32(buf))
	off := 4
	out := make([]appendReq, 0, min(count, len(buf)/5))
	for i := 0; i < count; i++ {
		if off+5 > len(buf) {
			return nil, fmt.Errorf("wal: truncated batch entry")
		}
		kind := buf[off]
		n := int(binary.LittleEndian.Uint32(buf[off+1:]))
		off += 5
		if n > len(buf)-off {
			return nil, fmt.Errorf("wal: truncated batch payload")
		}
		out = append(out, appendReq{kind: kind, payload: buf[off : off+n]})
		off += n
	}
	return out, nil
}
