package core

import (
	"slices"
	"sync"
	"time"
)

// batchSize caps how many transactions ever join one batch.
const batchSize = 64

// Batches is the batch lifecycle of one non-leaf SSI or TSO node. To keep
// consistent ordering such a node gives the transactions of one child a
// shared timestamp — a batch — and leaves their relative order to that child
// (§4.4.3, §4.4.4). Any partition of a child's transactions into batches
// whose timestamp precedes every member's begin gives the child that
// freedom, so both mechanisms use one rule: a child's batch takes new
// members until batchSize have joined or it is older than Env.BatchAge, and
// a batch whose members have all finished is retired — nobody joins it
// again. X is the mechanism's own per-batch state.
type Batches[X any] struct {
	env *Env

	mu      sync.Mutex
	current map[*Node]*Batch[X] // per child: the batch new members join
	live    []*Batch[X]         // undrained batches, ascending timestamps
}

// Batch is one group of same-child transactions sharing timestamp TS.
type Batch[X any] struct {
	TS    uint64
	State X

	child   *Node
	joined  int // members ever, against batchSize
	active  int // members not yet finished
	created time.Time
	drained chan struct{}
}

// NewBatches returns the empty batch lifecycle of one node.
func NewBatches[X any](env *Env) *Batches[X] {
	return &Batches[X]{env: env, current: make(map[*Node]*Batch[X])}
}

// Join adds a member to child's batch, first opening a new one with a fresh
// oracle timestamp if child has none, or its batch is full or older than
// Env.BatchAge.
func (bs *Batches[X]) Join(child *Node) *Batch[X] {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.current[child]
	if b == nil || b.joined >= batchSize || time.Since(b.created) > bs.env.BatchAge {
		b = &Batch[X]{TS: bs.env.Oracle.Next(), child: child, created: time.Now(), drained: make(chan struct{})}
		bs.current[child] = b
		bs.live = append(bs.live, b)
	}
	b.joined++
	b.active++
	return b
}

// Leave ends one member's part in b. The last member out retires b: it is
// no longer its child's batch, no longer bounds SnapshotLowerBound, and
// Drained is closed.
func (bs *Batches[X]) Leave(b *Batch[X]) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b.active--; b.active > 0 {
		return
	}
	if bs.current[b.child] == b {
		delete(bs.current, b.child)
	}
	i := slices.Index(bs.live, b)
	bs.live = slices.Delete(bs.live, i, i+1)
	close(b.drained)
}

// SnapshotLowerBound returns the oldest undrained batch's timestamp, or
// ^uint64(0) if there is none: no member of this node reads below it, so
// the engine's GC watermark stays under it.
func (bs *Batches[X]) SnapshotLowerBound() uint64 {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if len(bs.live) == 0 {
		return ^uint64(0)
	}
	return bs.live[0].TS
}

// EarliestBefore returns the earliest undrained batch with a timestamp below
// b's, or nil if there is none.
func (bs *Batches[X]) EarliestBefore(b *Batch[X]) *Batch[X] {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if len(bs.live) > 0 && bs.live[0].TS < b.TS {
		return bs.live[0]
	}
	return nil
}

// Drained is closed when b's last member leaves.
func (b *Batch[X]) Drained() <-chan struct{} { return b.drained }
