package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Exec performs the i-th transaction on one connection, returning nil on
// commit. It is called from the connection's worker goroutine only.
type Exec func(i int) error

// Options configure a run.
type Options struct {
	// Workers is the number of connections (one worker goroutine each).
	Workers int
	// Rate is the target arrival rate in transactions/second across all
	// workers. Ignored in closed-loop mode.
	Rate float64
	// Count is the total number of arrivals.
	Count int
	// ClosedLoop, when true, skips the pacer: each worker issues its next
	// transaction as soon as the previous one completes and latency is
	// measured from the ACTUAL send time. This is the coordinated-omission
	//-blind number the open-loop run is compared against.
	ClosedLoop bool
	// Clock defaults to the wall clock; tests inject FakeClock.
	Clock Clock
}

// Report is the outcome of a run. Latency quantiles are measured from each
// arrival's intended send time (open loop) or actual send time (closed
// loop).
type Report struct {
	Arrivals  uint64
	Committed uint64
	Failed    uint64
	Elapsed   time.Duration
	Rate      float64 // achieved committed txn/sec
	Hist      *Hist
	P50       time.Duration
	P99       time.Duration
	P999      time.Duration
	Max       time.Duration
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%d txns  %.0f txn/s  p50 %v  p99 %v  p999 %v  max %v  (%d failed)",
		r.Committed, r.Rate, r.P50, r.P99, r.P999, r.Max, r.Failed)
}

// arrival is one scheduled transaction: its index and intended send time.
type arrival struct {
	i        int
	intended time.Time
}

// queue is an unbounded MPSC arrival queue. The pacer must NEVER block on a
// slow worker — blocking would re-introduce the coordinated omission the
// open loop exists to expose — so the queue grows instead.
type queue struct {
	mu     sync.Mutex
	items  []arrival
	signal chan struct{} // 1-buffered wakeup
	closed bool
}

func newQueue() *queue {
	return &queue{signal: make(chan struct{}, 1)}
}

func (q *queue) push(a arrival) {
	q.mu.Lock()
	q.items = append(q.items, a)
	q.mu.Unlock()
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

// pop blocks for the next arrival; ok=false when the queue is closed and
// drained.
func (q *queue) pop() (arrival, bool) {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			a := q.items[0]
			q.items = q.items[1:]
			q.mu.Unlock()
			return a, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return arrival{}, false
		}
		<-q.signal
	}
}

// pace emits Count arrival times at Rate, calling emit(i, intended) for
// each; emit runs on the pacer goroutine at (or immediately after) the
// intended instant. Exposed to tests via the package-internal name.
func pace(clock Clock, start time.Time, rate float64, count int, emit func(i int, intended time.Time)) {
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < count; i++ {
		intended := start.Add(time.Duration(i) * interval)
		clock.SleepUntil(intended)
		emit(i, intended)
	}
}

// Run drives Count transactions over Workers connections. setup is called
// once per worker (dial the connection, capture workload state) and must
// return the worker's Exec; a setup error aborts the run.
//
// Open loop: a single pacer emits arrivals at Rate, round-robin across
// workers; each worker executes its queued arrivals in order and records
// completion-minus-INTENDED-time into the histogram. Closed loop: workers
// split Count evenly and fire back-to-back, recording completion minus
// actual send time.
func Run(opts Options, setup func(worker int) (Exec, error)) (*Report, error) {
	if opts.Workers <= 0 {
		return nil, fmt.Errorf("loadgen: Workers must be positive")
	}
	if opts.Count <= 0 {
		return nil, fmt.Errorf("loadgen: Count must be positive")
	}
	if !opts.ClosedLoop && opts.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: open loop needs a positive Rate")
	}
	clock := opts.Clock
	if clock == nil {
		clock = RealClock{}
	}

	// Set workers up with bounded parallelism: 10k+ sequential dials would
	// dominate the run. setup must therefore be safe to call concurrently.
	execs := make([]Exec, opts.Workers)
	{
		sem := make(chan struct{}, 128)
		errs := make(chan error, opts.Workers)
		var swg sync.WaitGroup
		for w := range execs {
			swg.Add(1)
			sem <- struct{}{}
			go func(w int) {
				defer swg.Done()
				defer func() { <-sem }()
				e, err := setup(w)
				if err != nil {
					errs <- fmt.Errorf("loadgen: worker %d setup: %w", w, err)
					return
				}
				execs[w] = e
			}(w)
		}
		swg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return nil, err
		}
	}

	rep := &Report{Hist: &Hist{}}
	var committed, failed atomic.Uint64
	start := clock.Now()
	var wg sync.WaitGroup

	if opts.ClosedLoop {
		per := opts.Count / opts.Workers
		extra := opts.Count % opts.Workers
		next := 0
		for w := 0; w < opts.Workers; w++ {
			n := per
			if w < extra {
				n++
			}
			lo := next
			next += n
			wg.Add(1)
			go func(w, lo, n int) {
				defer wg.Done()
				for i := lo; i < lo+n; i++ {
					sent := clock.Now()
					err := execs[w](i)
					rep.Hist.Record(clock.Now().Sub(sent))
					if err != nil {
						failed.Add(1)
					} else {
						committed.Add(1)
					}
				}
			}(w, lo, n)
		}
		wg.Wait()
	} else {
		queues := make([]*queue, opts.Workers)
		for w := range queues {
			queues[w] = newQueue()
			wg.Add(1)
			// The feeder closes the queue when the run ends; pop returns
			// ok=false and the worker exits.
			go func(w int) {
				defer wg.Done()
				for {
					a, ok := queues[w].pop()
					if !ok {
						return
					}
					err := execs[w](a.i)
					rep.Hist.Record(clock.Now().Sub(a.intended))
					if err != nil {
						failed.Add(1)
					} else {
						committed.Add(1)
					}
				}
			}(w)
		}
		pace(clock, start, opts.Rate, opts.Count, func(i int, intended time.Time) {
			queues[i%opts.Workers].push(arrival{i: i, intended: intended})
		})
		for _, q := range queues {
			q.close()
		}
		wg.Wait()
	}

	rep.Elapsed = clock.Now().Sub(start)
	rep.Arrivals = uint64(opts.Count)
	rep.Committed = committed.Load()
	rep.Failed = failed.Load()
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.Rate = float64(rep.Committed) / secs
	}
	rep.P50 = rep.Hist.Quantile(0.50)
	rep.P99 = rep.Hist.Quantile(0.99)
	rep.P999 = rep.Hist.Quantile(0.999)
	rep.Max = rep.Hist.Max()
	return rep, nil
}
