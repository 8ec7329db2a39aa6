package wal

import (
	"encoding/binary"
	"time"
)

// Request kinds inside the pipeline. A transaction record becomes one store
// record under the key t. A seal instructs the appender to flush and advance
// the epoch marker e.
const (
	recTxn  byte = iota // payload = encodeRecord(...)
	recSeal             // no payload; epoch = the GCP epoch to seal
)

// maxBatch bounds how many requests the appender coalesces into one batch.
const maxBatch = 256

// Ticket tracks one request — a transaction's record or a seal — through the
// group-commit pipeline. It completes once the request is appended and,
// under SyncCommit, flushed. With asynchronous durability nothing waits on a
// transaction's ticket: commit notification stays decoupled from durable
// notification (§4.5.4), and WaitDurable remains the durable notification.
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

// appendReq is one request handed to the appender.
type appendReq struct {
	kind    byte
	payload []byte
	epoch   uint64
	tk      *Ticket
}

// appender is the log's single writer: it drains its queue, appends every
// record waiting in it — one store record per transaction — and, under
// SyncCommit, fsyncs once for all of them (leader/follower group commit; the
// "leader" is the appender goroutine, committers are all followers).
type appender struct {
	m      *Manager
	ch     chan appendReq
	marker uint64 // newest epoch marker written to the log
	mark   [8]byte
	exited chan struct{}
}

func newAppender(m *Manager) *appender {
	return &appender{
		m: m,
		// Deep enough that stagers, who send while holding the stage
		// lock, do not block behind an fsync.
		ch:     make(chan appendReq, 4096),
		exited: make(chan struct{}),
	}
}

// run is the appender loop. Batching is "natural": while one batch is being
// appended (and fsynced), new requests pile up in the channel; the next
// iteration takes them all, up to maxBatch. The loop exits when the channel
// is closed and drained.
func (a *appender) run() {
	defer close(a.exited)
	var buf []appendReq
	for {
		req, ok := <-a.ch
		if !ok {
			return
		}
		batch := append(buf[:0], req)
		closed := false
	drain:
		for len(batch) < maxBatch {
			select {
			case r, ok := <-a.ch:
				if !ok {
					closed = true
					break drain
				}
				batch = append(batch, r)
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

// flush appends the batch's records, advances the epoch marker when
// required, fsyncs once for the whole batch, and completes every ticket.
// Once the log is poisoned it only completes tickets, with the sticky error.
func (a *appender) flush(batch []appendReq) {
	var records int
	var sealed, sync bool
	var maxEpoch uint64
	for _, r := range batch {
		switch r.kind {
		case recSeal:
			sealed, sync = true, true
			maxEpoch = max(maxEpoch, r.epoch)
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
		err = a.write(batch, records, maxEpoch, sync)
		if err == nil && sealed {
			err = a.m.hook("seal")
		} else if err == nil && sync {
			err = a.m.hook("flush")
		}
		if err != nil {
			err = a.m.fail(err)
		}
	}
	if records > 0 {
		a.m.observe(records, time.Since(start), err)
	}
	for _, r := range batch {
		r.tk.complete(err)
	}
}

// write puts one batch on the device: every transaction record, then the
// epoch marker if the batch advances it, then — once — the fsync. The
// appender is the sole writer of the epoch marker, so the marker is monotone
// by construction:
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
// Either way the marker is appended after the records it covers, so a torn
// tail can lose it (conservative) but never persist it ahead of its records.
func (a *appender) write(batch []appendReq, records int, maxEpoch uint64, sync bool) error {
	for _, r := range batch {
		if r.kind == recTxn {
			if err := a.m.st.Set(txnKey, r.payload); err != nil {
				return err
			}
		}
	}
	if records > 0 {
		if err := a.m.hook("append"); err != nil {
			return err
		}
	}
	if maxEpoch > a.marker {
		binary.LittleEndian.PutUint64(a.mark[:], maxEpoch)
		if err := a.m.st.Set(epochKey, a.mark[:]); err != nil {
			return err
		}
		a.marker = maxEpoch
	}
	if sync {
		return a.m.st.Sync()
	}
	return nil
}
