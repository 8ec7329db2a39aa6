package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/profiler"
	"repro/tebaldi"
	"repro/workload/tpcc"
)

// The experiments with their own control flow. Each takes its database and
// generator from its table entry's first case.

// profilingCaseStudy is the §5.3.1 case study: under RP{payment} against
// stock_level only payment's latency rises with load — the latency-based
// profiler would blame payment-payment contention — while the
// blocking-event profiler attributes the blocked time to exact edges.
func profilingCaseStudy(x *Experiment, p Params) error {
	w := p.Out
	warmup, measure := p.windows()
	db, gen, stop, err := x.Cases[0].Start()
	if err != nil {
		return err
	}
	defer stop()
	for _, clients := range p.clients() {
		db.Engine().Profiler().Window() // reset
		res := Drive(db, gen, clients, warmup, measure)
		scores := profiler.Scores(db.Engine().Profiler().Window())
		edge, score, _ := profiler.Bottleneck(scores)
		fmt.Fprintf(w, "  %4d clients: %8.0f txn/s   latency pay=%-10v sl=%-10v  bottleneck %s<->%s (%v)\n",
			clients, res.Throughput,
			res.MeanLatency[tpcc.TxnPayment].Round(time.Microsecond),
			res.MeanLatency[tpcc.TxnStockLevel].Round(time.Microsecond),
			edge.A, edge.B, score.Round(time.Microsecond))
	}
	return nil
}

// autoconf drives an automatic-configuration session (Figures 5.11-5.16)
// over a background closed-loop workload, then switches the same live
// system to the manual configuration for comparison.
func autoconf(manual *tebaldi.Config, manualName string) func(*Experiment, Params) error {
	return func(x *Experiment, p Params) error {
		w := p.Out
		warmup, measure := p.windows()
		db, gen, stop, err := x.Cases[0].Start()
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(w, "initial config: %s\n", db.ConfigString())

		stopAndJoin := Clients(db, gen, p.fixedClients())
		defer stopAndJoin()
		time.Sleep(warmup)

		res, err := db.AutoConfigure(tebaldi.AutoConfigOptions{
			MeasureWindow: measure / 2,
			Settle:        warmup / 2,
			MaxIterations: 6,
			Log: func(format string, args ...any) {
				fmt.Fprintf(w, "  "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "final auto config: %s  (%.0f txn/s)\n", res.Final, res.FinalThroughput)

		if err := db.Reconfigure(manual, tebaldi.PartialRestart); err != nil {
			return err
		}
		time.Sleep(warmup)
		snap := db.Stats().Snapshot()
		time.Sleep(measure)
		manualTput := db.Stats().Since(snap).Throughput
		fmt.Fprintf(w, "%s (manual): %.0f txn/s -> auto retains %.0f%%\n",
			manualName, manualTput, 100*res.FinalThroughput/manualTput)
		return nil
	}
}

// monitored is Figure 5.17's "ON" row: a Drive with a monitor draining
// profiler windows and computing scores, as the live analysis stage would.
func monitored(p Params, db *tebaldi.DB, gen tebaldi.Gen) string {
	_, measure := p.windows()
	stopDrain := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		tick := time.NewTicker(measure / 4)
		defer tick.Stop()
		for {
			select {
			case <-stopDrain:
				return
			case <-tick.C:
				profiler.Scores(db.Engine().Profiler().Window())
			}
		}
	}()
	res := p.drive(db, gen)
	close(stopDrain)
	<-drained
	return res.String()
}

// reconfiguration is Figures 5.18/5.19: the throughput timeline across a
// live reconfiguration under the two protocols. The paper's third
// reconfiguration touches one subgroup; here the delivery leaf switches
// RP -> 2PL. Online update gates only delivery (4% of the mix); partial
// restart quiesces everything.
func reconfiguration(x *Experiment, p Params) error {
	w := p.Out
	warmup, _ := p.windows()
	const (
		bucket  = 50 * time.Millisecond
		buckets = 30
	)
	to := tpcc.ConfigTebaldi3Layer()
	to.Children[1].Children[1] = tebaldi.Leaf(tebaldi.TwoPL, tpcc.TxnDelivery)
	for _, proto := range []struct {
		name string
		p    tebaldi.ReconfigProtocol
	}{
		{"partial-restart", tebaldi.PartialRestart},
		{"online-update", tebaldi.OnlineUpdate},
	} {
		proto := proto
		db, gen, stop, err := x.Cases[0].Start()
		if err != nil {
			return err
		}
		stopAndJoin := Clients(db, gen, p.fixedClients())
		time.Sleep(warmup)
		// Sample throughput in buckets; reconfigure at bucket 10.
		series := make([]float64, 0, buckets)
		done := make(chan error, 1)
		for b := 0; b < buckets; b++ {
			if b == 10 {
				go func() { done <- db.Reconfigure(to, proto.p) }()
			}
			snap := db.Stats().Snapshot()
			time.Sleep(bucket)
			series = append(series, db.Stats().Since(snap).Throughput)
		}
		stopAndJoin()
		err = <-done
		stop()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s:\n ", proto.name)
		for _, v := range series {
			fmt.Fprintf(w, " %6.0f", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// dirBytes sums the sizes of all regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, de := range ents {
		if info, err := de.Info(); err == nil && !de.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// recovery measures bounded-log restart: N committed update transactions
// under sync group commit, then a cold restart. Without checkpoints the log
// holds the full history and recovery replays all of it; with periodic
// checkpoints the log is rewritten as the snapshot plus the post-cut tail,
// and recovery loads the snapshot and replays only the tail. Reports on-disk log size, restart time, and the
// records-replayed counter.
func recovery(x *Experiment, p Params) error {
	w := p.Out
	n := 20000
	if p.Quick {
		n = 4000
	}
	fmt.Fprintf(w, "N=%d txns, %d hot keys\n", n, recoveryKeys)
	c := x.Cases[0]
	rng := rand.New(rand.NewSource(1))

	var rows [][2]string
	for _, mode := range []struct {
		name  string
		every int // checkpoint every `every` txns; 0 = never
	}{
		{"no checkpoints", 0},
		{"checkpoint every N/8", n / 8},
	} {
		// The log must outlive the database here, so the directory is this
		// function's, not Start's.
		dir, err := os.MkdirTemp("", "tebaldi-recovery-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts := c.options()
		opts.DurabilityDir = dir
		db, gen, err := c.Open(opts)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := db.Exec(gen(rng)); err != nil {
				db.Close()
				return err
			}
			if mode.every > 0 && (i+1)%mode.every == 0 {
				if err := db.Checkpoint(); err != nil {
					db.Close()
					return err
				}
			}
		}
		if err := db.Close(); err != nil {
			return err
		}
		size := dirBytes(dir)

		start := time.Now()
		db2, st, err := tebaldi.Recover(opts, putSpecs, putConfig)
		if err != nil {
			return err
		}
		restart := time.Since(start)
		db2.Close()
		rows = append(rows, [2]string{mode.name,
			fmt.Sprintf("disk %7.1f KiB   restart %8v   replayed %6d records   snapshot %4d keys",
				float64(size)/1024, restart.Round(100*time.Microsecond), st.Replayed, st.SnapshotKeys)})
	}
	table(w, "measured:", rows)
	return nil
}
