package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// counter is a minimal Oracle.
type counter struct{ n atomic.Uint64 }

func (c *counter) Next() uint64 { return c.n.Add(1) }
func (c *counter) Last() uint64 { return c.n.Load() }

func drained[X any](b *Batch[X]) bool {
	select {
	case <-b.Drained():
		return true
	default:
		return false
	}
}

func TestBatches(t *testing.T) {
	cases := []struct {
		name string
		age  time.Duration
		// run drives the lifecycle of one node whose children are a, b, c.
		run func(t *testing.T, bs *Batches[int], a, b, c *Node)
	}{
		{
			name: "a child's joins share one batch up to the size cap", age: time.Hour,
			run: func(t *testing.T, bs *Batches[int], a, b, c *Node) {
				first := bs.Join(a)
				for i := 1; i < batchSize; i++ {
					if got := bs.Join(a); got != first {
						t.Fatalf("join %d opened a new batch below the cap", i+1)
					}
				}
				if other := bs.Join(b); other == first {
					t.Fatal("another child joined a's batch")
				}
				next := bs.Join(a)
				if next == first || next.TS <= first.TS {
					t.Fatalf("join %d: batch %p ts %d, want a new batch above ts %d", batchSize+1, next, next.TS, first.TS)
				}
			},
		},
		{
			name: "a batch older than BatchAge takes no new member", age: time.Millisecond,
			run: func(t *testing.T, bs *Batches[int], a, b, c *Node) {
				old := bs.Join(a)
				time.Sleep(2 * time.Millisecond)
				if got := bs.Join(a); got == old {
					t.Fatal("a batch past BatchAge took a new member")
				}
				if drained(old) {
					t.Fatal("rotation drained a batch that still has a member")
				}
			},
		},
		{
			name: "a drained batch is retired and never rejoined", age: time.Hour,
			run: func(t *testing.T, bs *Batches[int], a, b, c *Node) {
				x := bs.Join(a)
				bs.Join(a)
				bs.Leave(x)
				if drained(x) {
					t.Fatal("drained with a member left")
				}
				bs.Leave(x)
				if !drained(x) {
					t.Fatal("the last member left and Drained is still open")
				}
				if got := bs.Join(a); got == x || got.TS <= x.TS {
					t.Fatalf("a new member joined the drained batch (ts %d, drained ts %d)", got.TS, x.TS)
				}
			},
		},
		{
			name: "the lower bound is the oldest undrained batch", age: time.Hour,
			run: func(t *testing.T, bs *Batches[int], a, b, c *Node) {
				if got := bs.SnapshotLowerBound(); got != ^uint64(0) {
					t.Fatalf("no batches: bound %d, want ^uint64(0)", got)
				}
				x, y, z := bs.Join(a), bs.Join(b), bs.Join(c)
				if got := bs.SnapshotLowerBound(); got != x.TS {
					t.Fatalf("bound %d, want the oldest %d", got, x.TS)
				}
				bs.Leave(y) // drained out of order: the oldest still bounds
				if got := bs.SnapshotLowerBound(); got != x.TS {
					t.Fatalf("bound %d after a younger batch drained, want %d", got, x.TS)
				}
				bs.Leave(x)
				if got := bs.SnapshotLowerBound(); got != z.TS {
					t.Fatalf("bound %d, want %d past both drained batches", got, z.TS)
				}
				bs.Leave(z)
				if got := bs.SnapshotLowerBound(); got != ^uint64(0) {
					t.Fatalf("all drained: bound %d, want ^uint64(0)", got)
				}
			},
		},
		{
			name: "the earliest-undrained query skips drained batches", age: time.Hour,
			run: func(t *testing.T, bs *Batches[int], a, b, c *Node) {
				x, y, z := bs.Join(a), bs.Join(b), bs.Join(c)
				if got := bs.EarliestBefore(z); got != x {
					t.Fatalf("EarliestBefore(z) = %p, want x %p", got, x)
				}
				if got := bs.EarliestBefore(x); got != nil {
					t.Fatalf("EarliestBefore(x) = %p, want nil: nothing is older", got)
				}
				bs.Leave(x)
				if got := bs.EarliestBefore(z); got != y {
					t.Fatalf("EarliestBefore(z) = %p after x drained, want y %p", got, y)
				}
				if got := bs.EarliestBefore(y); got != nil {
					t.Fatalf("EarliestBefore(y) = %p, want nil: x drained", got)
				}
				bs.Leave(y)
				if got := bs.EarliestBefore(z); got != nil {
					t.Fatalf("EarliestBefore(z) = %p, want nil: x and y drained", got)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			bs := NewBatches[int](&Env{Oracle: &counter{}, BatchAge: tc.age})
			tc.run(t, bs, &Node{ID: 1}, &Node{ID: 2}, &Node{ID: 3})
		})
	}
}
