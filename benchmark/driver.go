package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/tebaldi"
)

// shape is the run shape: a workload is reps × (fresh DB + load → warm-up →
// measured window), after extraSetups set-ups that are only timed. Only the
// window's length follows from a flag (-seconds); the rest is the same on
// both sides of any later comparison.
type shape struct {
	reps        int
	extraSetups int
	warmup      time.Duration
	window      time.Duration
}

// standardShape splits -seconds over four repetitions. A fresh DB per
// repetition is required: TPC-C on one DB slows by a quarter over three
// consecutive windows as its tables and the Go heap grow, so windows on a
// reused DB are not repeats.
func standardShape(seconds int) shape {
	return shape{reps: 4, extraSetups: 5, warmup: time.Second, window: time.Duration(seconds) * time.Second / 4}
}

const maxAttempts = 20 // per logical transaction, then it counts as failed

// client is one closed-loop caller: it draws a logical transaction from its
// generator rng, then runs it until it commits, waiting for every reply.
type client interface {
	// next draws the coming transaction; all randomness comes from rng.
	next(rng *rand.Rand)
	// attempt runs the drawn transaction once, starting at t0, and returns
	// the time it ended. With sp != nil it records one span per layer call.
	attempt(sp *spans, t0 time.Time) (time.Time, error)
}

// instance is the freshly set-up system of one repetition.
type instance struct {
	db      *tebaldi.DB
	srv     *server.Server // kv_wire only
	clients []client
	// check is the workload's output check on the quiesced system. It may
	// add layer metrics that need the system stopped (log size, recovery
	// time).
	check func(layers map[string]float64) error
	// close tears the system down; it is safe after check and on its own.
	close func() error
}

type workload struct {
	name  string
	setup func(rc repCtx) (*instance, error)
}

// repCtx is everything a repetition's set-up may depend on.
type repCtx struct {
	seed   int64
	rep    int
	traced bool   // open the DB with the blocking-event profiler on
	dir    string // scratch directory on the real filesystem
}

// dbOptions are internal/bench's: 16 data-server shards, and a lock timeout
// well above queueing delay so a timeout means deadlock, not load.
func (rc repCtx) dbOptions() tebaldi.Options {
	return tebaldi.Options{Shards: 16, LockTimeout: 400 * time.Millisecond, Profiling: rc.traced}
}

// streamSeed derives an independent rng seed from (seed, repetition, client,
// stream) with splitmix64 steps, so neighbouring inputs give unrelated
// streams.
func streamSeed(parts ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h += uint64(p) + 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h)
}

const (
	streamGen = iota
	streamBackoff
	streamCheck
)

// clientRngs returns client c's two private streams: one draws transactions,
// the other back-off sleeps, so how often a run retried never changes what it
// generated.
func clientRngs(seed int64, rep, c int) (gen, bo *rand.Rand) {
	gen = rand.New(rand.NewSource(streamSeed(seed, int64(rep), int64(c), streamGen)))
	bo = rand.New(rand.NewSource(streamSeed(seed, int64(rep), int64(c), streamBackoff)))
	return gen, bo
}

// backoff is internal/bench.RunOp's policy: uniform in 50 µs … 200 µs ×
// attempts made so far, the upper end capped at 5 ms.
func backoff(attempts int, rng *rand.Rand) time.Duration {
	max := 200 * attempts
	if max > 5000 {
		max = 5000
	}
	return time.Duration(rng.Intn(max)+50) * time.Microsecond
}

// clientStats is one client's private tally; nothing on the hot path is
// shared between clients.
type clientStats struct {
	lat        hist     // transactions that committed inside the window
	perSecond  []uint64 // the same, counted by the second of the window they ended in
	failed     uint64   // ended non-retryable or exhausted maxAttempts, inside the window
	attempts   uint64   // attempts made by the window's transactions
	allCommits uint64   // whole repetition, warm-up included, for the output checks
	firstErr   error
	sp         *spans
}

// runClient is the closed loop. A transaction belongs to the window when it
// ends inside it; latency runs from the first Begin to the successful
// Commit, retries and back-off included.
func runClient(cl client, cs *clientStats, gen, bo *rand.Rand, winStart, winEnd time.Time) {
	var end time.Time
	for {
		cl.next(gen)
		start := time.Now()
		sp := cs.sp
		if start.Before(winStart) {
			sp = nil
		}
		sp.beginTxn(end, start)
		var (
			err      error
			attempts uint64
		)
		at := start
		for {
			attempts++
			end, err = cl.attempt(sp, at)
			sp.add(spanAttempt, at, end)
			if err == nil || attempts == maxAttempts || !core.IsRetryable(err) {
				break
			}
			time.Sleep(backoff(int(attempts), bo))
			at = time.Now()
			sp.add(spanBackoff, end, at)
		}
		sp.endTxn(start, end)
		if err == nil {
			cs.allCommits++
		}
		if !end.Before(winEnd) {
			return
		}
		if end.Before(winStart) {
			continue
		}
		cs.attempts += attempts
		if err != nil {
			cs.failed++
			if cs.firstErr == nil {
				cs.firstErr = err
			}
			continue
		}
		cs.lat.record(end.Sub(start))
		if s := int(end.Sub(winStart) / time.Second); s < len(cs.perSecond) {
			cs.perSecond[s]++
		}
	}
}

// repResult is one repetition's measurements.
type repResult struct {
	e2e       map[string]float64
	committed uint64
	failed    uint64
	firstErr  error              // of a failed transaction
	layers    map[string]float64 // traced repetitions only
	trees     []traceTree        // traced repetitions only
}

// edge is what the coordinator reads at each end of the measured window of a
// traced repetition; everything in it is a public counter.
type edge struct {
	mem    runtime.MemStats
	stats  engine.Snapshot
	frames uint64
}

func readEdge(inst *instance) edge {
	e := edge{stats: inst.db.Stats().Snapshot()}
	runtime.ReadMemStats(&e.mem)
	if inst.srv != nil {
		m := inst.srv.Metrics()
		e.frames = m.FramesRead.Load() + m.FramesWritten.Load()
	}
	return e
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeSetup sets w up once, from a clean heap (the previous repetition's
// database is garbage by now), and returns how long that took.
func timeSetup(w *workload, rc repCtx) (*instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := w.setup(rc)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return inst, time.Since(t0).Seconds(), nil
}

// runRep runs one repetition of w: set-up, warm-up, measured window, output
// check. The window's transactions are pooled over the clients: throughput
// is commits over the window's length, p50 and p95 are read off the merged
// histogram. rc.traced adds client-side spans and the window-edge counter
// reads; end-to-end numbers are only ever taken from untraced repetitions.
func runRep(w *workload, rc repCtx, sh shape) (*repResult, error) {
	inst, setupS, err := timeSetup(w, rc)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	commitsBefore := inst.db.Stats().Snapshot().Commits

	stats := make([]*clientStats, len(inst.clients))
	winStart := time.Now().Add(sh.warmup)
	winEnd := winStart.Add(sh.window)
	var wg sync.WaitGroup
	for c, cl := range inst.clients {
		cs := &clientStats{perSecond: make([]uint64, int(sh.window/time.Second))}
		if rc.traced {
			cs.sp = &spans{}
		}
		stats[c] = cs
		gen, bo := clientRngs(rc.seed, rc.rep, c)
		wg.Add(1)
		go func(cl client) {
			defer wg.Done()
			runClient(cl, cs, gen, bo, winStart, winEnd)
		}(cl)
	}

	var e0, e1 edge
	time.Sleep(time.Until(winStart))
	if rc.traced {
		inst.db.Engine().Profiler().Window() // discard the warm-up's blocking events
		e0 = readEdge(inst)
	}
	time.Sleep(time.Until(winEnd))
	if rc.traced {
		e1 = readEdge(inst)
	}
	wg.Wait()

	var (
		lat                  hist
		attempts, allCommits uint64
		sp                   spans
	)
	res := &repResult{}
	perSecond := make([]uint64, len(stats[0].perSecond))
	for _, cs := range stats {
		lat.merge(&cs.lat)
		for s, n := range cs.perSecond {
			perSecond[s] += n
		}
		res.failed += cs.failed
		attempts += cs.attempts
		allCommits += cs.allCommits
		if res.firstErr == nil {
			res.firstErr = cs.firstErr
		}
		if cs.sp != nil {
			sp.merge(cs.sp)
		}
	}
	res.committed = lat.n
	if res.committed == 0 {
		return nil, fmt.Errorf("%s: no transaction committed in the window (first error: %v)", w.name, res.firstErr)
	}
	res.e2e = map[string]float64{
		"throughput_txn_s": float64(res.committed) / sh.window.Seconds(),
		"p50_us":           lat.quantile(0.50) / 1e3,
		"p95_us":           lat.quantile(0.95) / 1e3,
		"committed_share":  float64(res.committed) / float64(res.committed+res.failed),
		"setup_s":          setupS,
	}

	layers := map[string]float64{}
	if rc.traced {
		txns := float64(res.committed)
		engineAttempts := float64(e1.stats.Commits + e1.stats.Aborts - e0.stats.Commits - e0.stats.Aborts)
		layers["engine.begin_us"] = sp.perTxnUs(spanBegin)
		layers["engine.body_us"] = sp.perTxnUs(spanBody)
		layers["engine.commit_us"] = sp.perTxnUs(spanCommit)
		layers["engine.rollback_us"] = sp.perTxnUs(spanRollback)
		layers["engine.retries_per_txn"] = ratio(float64(attempts)-float64(res.committed+res.failed), txns)
		layers["engine.abort_timeout_share"] = ratio(float64(e1.stats.AbortTimeout-e0.stats.AbortTimeout), engineAttempts)
		layers["engine.abort_conflict_share"] = ratio(float64(e1.stats.AbortConflict-e0.stats.AbortConflict), engineAttempts)
		layers["engine.abort_pivot_share"] = ratio(float64(e1.stats.AbortPivot-e0.stats.AbortPivot), engineAttempts)
		layers["engine.abort_cascade_share"] = ratio(float64(e1.stats.AbortCascade-e0.stats.AbortCascade), engineAttempts)

		var blockedNs time.Duration
		events := inst.db.Engine().Profiler().Window()
		for _, ev := range events {
			blockedNs += ev.End.Sub(ev.Start)
		}
		layers["cc.block_us_per_txn"] = ratio(float64(blockedNs)/1e3, txns)
		layers["cc.block_events_per_txn"] = ratio(float64(len(events)), txns)

		var chains, versions float64
		inst.db.Engine().Store().ForEach(func(ch *core.Chain) {
			chains++
			versions += float64(ch.Len())
		})
		layers["storage.versions_per_key"] = ratio(versions, chains)

		batches := float64(e1.stats.WalBatches - e0.stats.WalBatches)
		layers["wal.records_per_batch"] = ratio(float64(e1.stats.WalBatchRecords-e0.stats.WalBatchRecords), batches)
		layers["wal.flush_us"] = ratio(float64(e1.stats.WalFlushNs-e0.stats.WalFlushNs)/1e3, batches)
		layers["wal.batches_per_txn"] = ratio(batches, txns)

		layers["server.begin_rtt_us"] = sp.perCallUs(spanSrvBegin)
		layers["server.get_rtt_us"] = sp.perCallUs(spanSrvGet)
		layers["server.put_rtt_us"] = sp.perCallUs(spanSrvPut)
		layers["server.commit_rtt_us"] = sp.perCallUs(spanSrvCommit)
		layers["server.frames_per_txn"] = ratio(float64(e1.frames-e0.frames), txns)
		if inst.srv != nil {
			layers["server.protocol_errors"] = float64(inst.srv.Metrics().ProtocolErrors.Load())
		}

		layers["runtime.allocs_per_txn"] = ratio(float64(e1.mem.Mallocs-e0.mem.Mallocs), txns)
		layers["runtime.bytes_per_txn"] = ratio(float64(e1.mem.TotalAlloc-e0.mem.TotalAlloc), txns)
		layers["runtime.gc_pause_ms"] = float64(e1.mem.PauseTotalNs-e0.mem.PauseTotalNs) / 1e6
		layers["runtime.gc_cycles"] = float64(e1.mem.NumGC - e0.mem.NumGC)
		runtime.GC()
		var live runtime.MemStats
		runtime.ReadMemStats(&live)
		layers["runtime.live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)

		layers["driver.self_us"] = sp.selfUs()
		layers["driver.backoff_us"] = sp.perTxnUs(spanBackoff)
		layers["driver.txn_span_us"] = sp.perTxnUs(spanTxn)
		layers["driver.p99_us"] = lat.quantile(0.99) / 1e3
		layers["driver.p999_us"] = lat.quantile(0.999) / 1e3
		layers["driver.max_us"] = float64(lat.max) / 1e3
		if n := len(perSecond); n > 0 {
			layers["driver.first_last_ratio"] = ratio(float64(perSecond[n-1]), float64(perSecond[0]))
		}

		for c, cs := range stats {
			for i, recs := range cs.sp.trees {
				id := fmt.Sprintf("%s/r%d/c%d/t%d", w.name, rc.rep, c, i*sampleEvery)
				res.trees = append(res.trees, exportTree(id, recs, winStart))
			}
		}
		res.layers = layers
	}

	// Output checks, fatal on failure. The engine must have committed
	// exactly what the clients were told was committed.
	after := inst.db.Stats().Snapshot()
	layers["wal.errors"] = float64(after.WalErrors)
	checkErr := inst.check(layers)
	switch {
	case after.Commits-commitsBefore != allCommits:
		return res, fmt.Errorf("%s: clients saw %d commits, engine.Stats counted %d", w.name, allCommits, after.Commits-commitsBefore)
	case after.WalErrors != 0:
		return res, fmt.Errorf("%s: %d WAL errors", w.name, after.WalErrors)
	case checkErr != nil:
		return res, fmt.Errorf("%s: output check: %w", w.name, checkErr)
	}
	return res, nil
}

// summary is one metric over a run's repetitions: their median, the
// extremes, and how many there were.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func summarize(unit string, vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	return summary{Value: (s[(n-1)/2] + s[n/2]) / 2, Unit: unit, Min: s[0], Max: s[n-1], N: n}
}
