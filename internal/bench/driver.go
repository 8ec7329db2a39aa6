// Package bench is Tebaldi's benchmark harness: a closed-loop workload
// driver (the paper runs closed-loop test clients, §4.6) and ONE table of
// the evaluation's experiments (Experiments): per table or figure an id, a
// title, the shape the paper reports and the cases it compares, each case
// knowing how to open and load its database and which generator drives it.
// Two renderers read the table — Experiment.Print behind cmd/tebaldi-bench
// and the root package's go test -bench — so an experiment is defined
// once. Absolute numbers differ from the paper's 20-machine CloudLab
// cluster; the harness exists to reproduce the *shape* — who wins, by what
// factor, where crossovers fall.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/tebaldi"
)

// Result summarizes one measured run.
type Result struct {
	Clients     int
	Throughput  float64 // committed txn/sec
	AbortRate   float64
	MeanLatency map[string]time.Duration // per transaction type
	// AllocsPerTxn is the whole-process heap allocation count
	// (runtime.MemStats Mallocs) over the measurement window divided by
	// committed transactions. It includes client-side generation work, so
	// it is an upper bound on the engine's own per-transaction cost.
	AllocsPerTxn float64
	// WAL group-commit pipeline counters over the window (zero when
	// durability is off).
	WalMeanBatch float64       // mean records coalesced per flush
	WalMeanFlush time.Duration // mean append+flush latency
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%6d clients  %9.0f txn/s  abort %5.1f%%",
		r.Clients, r.Throughput, 100*r.AbortRate)
}

// RunOp executes one op with retry-on-abort, giving up when stop closes —
// closed-loop client semantics with prompt shutdown even under livelock
// (e.g. the Table 3.1 deadlock column, where every attempt may time out).
func RunOp(db *tebaldi.DB, op tebaldi.Op, stop <-chan struct{}, rng *rand.Rand) {
	for attempt := 0; ; attempt++ {
		select {
		case <-stop:
			return
		default:
		}
		tx, err := db.Begin(op.Type, op.Part)
		if err == nil {
			err = op.Fn(tx)
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Rollback(err)
			}
		}
		if err == nil || !tebaldi.IsRetryable(err) {
			return
		}
		time.Sleep(core.RetryBackoff(attempt, rng.Intn))
	}
}

// Clients starts n closed-loop client goroutines; the returned func stops
// and joins them.
func Clients(db *tebaldi.DB, gen tebaldi.Gen, n int) (stopAndJoin func()) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				RunOp(db, gen(rng), stop, rng)
			}
		}(int64(c) + 1)
	}
	return func() {
		close(stop)
		wg.Wait()
	}
}

// Drive runs `clients` closed-loop clients against db for warmup+measure,
// reporting stats over the measurement window only.
func Drive(db *tebaldi.DB, gen tebaldi.Gen, clients int, warmup, measure time.Duration) Result {
	stopAndJoin := Clients(db, gen, clients)
	time.Sleep(warmup)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	snap := db.Stats().Snapshot()
	time.Sleep(measure)
	w := db.Stats().Since(snap)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	stopAndJoin()

	res := Result{
		Clients:      clients,
		Throughput:   w.Throughput,
		AbortRate:    w.AbortRate,
		MeanLatency:  map[string]time.Duration{},
		WalMeanBatch: w.WalMeanBatch,
		WalMeanFlush: w.WalMeanFlush,
	}
	if w.Commits > 0 {
		res.AllocsPerTxn = float64(m1.Mallocs-m0.Mallocs) / float64(w.Commits)
	}
	for typ, wt := range w.PerType {
		res.MeanLatency[typ] = wt.MeanLatency
	}
	return res
}

// table prints an aligned two-column block.
func table(w io.Writer, title string, rows [][2]string) {
	fmt.Fprintf(w, "\n%s\n", title)
	width := 0
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-*s  %s\n", width, r[0], r[1])
	}
}
