package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"time"
)

// Request kinds inside the pipeline. A seal instructs the appender to flush
// and advance the epoch marker, a checkpoint marker to persist the checkpoint
// frontier; neither reaches the log as a batch entry. A transaction record is
// the log's only batch entry. Kinds 1, 2 and 4 were the precommit, commit and
// abort records of the two-phase format (decodeBatch refuses them by name).
const (
	recSeal       byte = 0 // no payload; epoch = the GCP epoch to seal
	recCheckpoint byte = 3 // payload = 16 bytes: checkpoint id, snapshot TS
	recTxn        byte = 5 // payload = encodeRecord(...)
)

// errTwoPhaseFormat names the record format this version cannot read.
var errTwoPhaseFormat = errors.New("wal: the log holds precommit/commit/abort records of the two-phase record format (a precommit record per data server and a coordinator commit record); this version logs one record per transaction and cannot read them")

// maxBatch bounds how many requests the appender coalesces into one batch.
const maxBatch = 256

// Ticket tracks one request — a transaction's record, a seal or a checkpoint
// marker — through the group-commit pipeline. It completes once the request
// is appended and, under SyncCommit, flushed. With asynchronous durability
// nothing waits on a transaction's ticket: commit notification stays
// decoupled from durable notification (§4.5.4), and WaitDurable remains the
// durable notification.
type Ticket struct {
	done chan struct{}
	err  error // written once, before done closes
	// writes are Precommit's, until Commit encodes them.
	writes []KV
}

func newTicket() *Ticket { return &Ticket{done: make(chan struct{})} }

// complete finishes the ticket with err (nil on success).
func (tk *Ticket) complete(err error) {
	tk.err = err
	close(tk.done)
}

// Done returns a channel closed when the request has been appended (and
// flushed, under SyncCommit).
func (tk *Ticket) Done() <-chan struct{} { return tk.done }

// Wait blocks until the ticket completes and returns its append error.
func (tk *Ticket) Wait() error {
	<-tk.done
	return tk.err
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
		// Deep enough that stagers, who send while holding the stage
		// lock, do not block behind an fsync.
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
// iteration takes them all, bounded by maxBatch requests and maxBatchBytes
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
		for len(batch) < maxBatch && bytes < maxBatchBytes {
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
		case recTxn:
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
//     queued at crash time is simply absent — and its committer was never
//     acknowledged, nor was any transaction that read from it, since those
//     queued behind it.
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

// appendBatch packs the batch's `records` transaction records into one value:
//
//	u32 count | repeat: u8 kind, u32 len, payload
func appendBatch(buf []byte, batch []appendReq, records int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(records))
	for _, r := range batch {
		if r.kind == recTxn {
			buf = append(buf, r.kind)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.payload)))
			buf = append(buf, r.payload...)
		}
	}
	return buf
}

// decodeBatch unpacks a coalesced batch record into its transaction records.
// Payloads alias buf. A batch of the two-phase format is refused by name.
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
		switch kind {
		case recTxn:
		case 1, 2, 4:
			return nil, errTwoPhaseFormat
		default:
			return nil, fmt.Errorf("wal: batch entry of unknown kind %d", kind)
		}
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
