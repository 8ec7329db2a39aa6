package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"repro/tebaldi"
	"repro/workload/micro"
	"repro/workload/seats"
	"repro/workload/tpcc"
	"repro/workload/ycsb"
)

// Params configure an experiment run.
type Params struct {
	Out   io.Writer // where the rows go
	Quick bool      // smaller client counts and windows (CI-friendly)
	// Target, when non-empty, points the serve experiment at an already
	// running tebaldi-server instead of starting one itself.
	Target string
}

func (p Params) windows() (warmup, measure time.Duration) {
	if p.Quick {
		return 300 * time.Millisecond, 1200 * time.Millisecond
	}
	return 500 * time.Millisecond, 3 * time.Second
}

func (p Params) clients() []int {
	if p.Quick {
		return []int{8, 32, 96}
	}
	return []int{4, 16, 64, 128, 256, 512}
}

func (p Params) fixedClients() int {
	if p.Quick {
		return 64
	}
	return 192
}

// drive is one Drive at the fixed client count over the standard windows.
func (p Params) drive(db *tebaldi.DB, gen tebaldi.Gen) Result {
	warmup, measure := p.windows()
	return Drive(db, gen, p.fixedClients(), warmup, measure)
}

// dbOptions are the options every case starts from.
func dbOptions() tebaldi.Options {
	// The lock timeout doubles as the deadlock detector (§4.4.1); it must
	// sit well above legitimate queueing delays at saturation, or every
	// spurious timeout triggers a cascading-abort storm through RP's
	// exposed uncommitted state.
	return tebaldi.Options{Shards: 16, LockTimeout: 400 * time.Millisecond}
}

// Experiment is one table or figure of the evaluation. Both renderers —
// Print (cmd/tebaldi-bench) and the root package's go test -bench — read
// this one description.
type Experiment struct {
	ID    string
	Title string
	// Paper is the shape the paper reports (or, for the experiments the
	// paper does not have, the shape to expect), printed under the title.
	Paper string
	Cases []Case
	// Sweep prints, per case, one row per client count of Params.clients
	// instead of one row at Params.fixedClients.
	Sweep bool
	// Run replaces the standard "open, drive, print a row" rendering for
	// the experiments with their own control flow; they still take their
	// database and generator from Cases.
	Run func(x *Experiment, p Params) error
}

// An opener builds a case's database under opts, loads it, and returns it
// with the workload's generator.
type opener = func(opts tebaldi.Options) (*tebaldi.DB, tebaldi.Gen, error)

// Case is one measured configuration of an experiment.
type Case struct {
	Label string
	// Group titles the block of rows the case prints in; consecutive cases
	// of one group form one block. Empty means "measured:".
	Group string
	Open  opener
	// Tweak adjusts dbOptions for this case (nil: none).
	Tweak func(*tebaldi.Options)
	// Measure produces the case's row (nil: one Drive at the fixed client
	// count, printed as Result.String).
	Measure func(p Params, db *tebaldi.DB, gen tebaldi.Gen) string
}

// tempDir, as Options.DurabilityDir, asks Start for a fresh temporary
// directory that lives as long as the case's database.
const tempDir = "\x00temp"

// wal is the tweak that turns durability on: synchronous group commit, or
// asynchronous GCP flushing, at the given epoch.
func wal(sync bool, epoch time.Duration) func(*tebaldi.Options) {
	return func(o *tebaldi.Options) {
		o.DurabilityDir = tempDir
		o.DurabilitySync = sync
		o.GCPEpoch = epoch
	}
}

func profiling(o *tebaldi.Options) { o.Profiling = true }

func oneShard(o *tebaldi.Options) { o.Shards = 1 }

// options are dbOptions plus the case's tweak.
func (c Case) options() tebaldi.Options {
	opts := dbOptions()
	if c.Tweak != nil {
		c.Tweak(&opts)
	}
	return opts
}

// Start opens the case's database under its options. stop closes it and
// removes the log directory Start created, if any.
func (c Case) Start() (db *tebaldi.DB, gen tebaldi.Gen, stop func(), err error) {
	opts := c.options()
	dir := "" // RemoveAll("") does nothing
	if opts.DurabilityDir == tempDir {
		if dir, err = os.MkdirTemp("", "tebaldi-bench-wal-*"); err != nil {
			return nil, nil, nil, err
		}
		opts.DurabilityDir = dir
	}
	if db, gen, err = c.Open(opts); err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	return db, gen, func() { db.Close(); os.RemoveAll(dir) }, nil
}

// Print renders the experiment: title, the paper's line, then either the
// custom Run or one block of rows per group of cases.
func (x *Experiment) Print(p Params) error {
	w := p.Out
	fmt.Fprintln(w, x.Title)
	if x.Paper != "" {
		fmt.Fprintln(w, x.Paper)
	}
	if x.Run != nil {
		return x.Run(x, p)
	}
	warmup, measure := p.windows()
	var rows [][2]string
	for i, c := range x.Cases {
		db, gen, stop, err := c.Start()
		if err != nil {
			return err
		}
		switch {
		case x.Sweep:
			fmt.Fprintf(w, "\n%s  [%s]\n", c.Label, db.ConfigString())
			for _, n := range p.clients() {
				fmt.Fprintf(w, "  %s\n", Drive(db, gen, n, warmup, measure))
			}
		case c.Measure != nil:
			rows = append(rows, [2]string{c.Label, c.Measure(p, db, gen)})
		default:
			rows = append(rows, [2]string{c.Label, p.drive(db, gen).String()})
		}
		stop()
		if last := i+1 == len(x.Cases); !x.Sweep && (last || x.Cases[i+1].Group != c.Group) {
			title := c.Group
			if title == "" {
				title = "measured:"
			}
			table(w, title, rows)
			rows = nil
		}
	}
	return nil
}

// open is the shape of every Case.Open: open the database, let load fill
// it and hand back the generator.
func open(specs []*tebaldi.Spec, cfg *tebaldi.Config, load func(*tebaldi.DB) tebaldi.Gen) opener {
	return func(opts tebaldi.Options) (*tebaldi.DB, tebaldi.Gen, error) {
		db, err := tebaldi.Open(opts, specs, cfg)
		if err != nil {
			return nil, nil, err
		}
		return db, load(db), nil
	}
}

// tpccDB is a populated TPC-C database at the default scale; gen picks the
// client's generator. A nil cfg is the initial configuration of §5.2.
func tpccDB(specs []*tebaldi.Spec, cfg *tebaldi.Config, gen func(*tpcc.Client) tebaldi.Gen) opener {
	return open(specs, cfg, func(db *tebaldi.DB) tebaldi.Gen {
		sc := tpcc.DefaultScale()
		tpcc.Load(db, sc)
		return gen(tpcc.NewClient(db, sc))
	})
}

func tpccMix(c *tpcc.Client) tebaldi.Gen    { return c.Mix }
func tpccHotMix(c *tpcc.Client) tebaldi.Gen { return c.HotMix }

// tpccCase is the standard TPC-C mix under cfg.
func tpccCase(label string, cfg *tebaldi.Config, tweak func(*tebaldi.Options)) Case {
	return Case{Label: label, Open: tpccDB(tpcc.Specs(false), cfg, tpccMix), Tweak: tweak}
}

// seatsDB is a populated SEATS database at the default scale.
func seatsDB(cfg *tebaldi.Config) opener {
	sc := seats.DefaultScale()
	return open(seats.Specs(sc), cfg, func(db *tebaldi.DB) tebaldi.Gen {
		seats.Load(db, sc)
		return seats.NewClient(db, sc).Mix
	})
}

func ycsbDB(w ycsb.Workload) opener {
	return open(w.Specs(), w.Config(), func(db *tebaldi.DB) tebaldi.Gen {
		c := ycsb.New(w)
		c.Load(db)
		return c.Mix
	})
}

// The recovery experiment's schema: blind puts over a few hot keys.
const recoveryKeys = 256

var (
	putSpecs  = []*tebaldi.Spec{{Name: "put", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}
	putConfig = tebaldi.Leaf(tebaldi.TwoPL, "put")
)

// putGen writes the hot keys round-robin, the i-th put carrying "v<i>".
func putGen(*tebaldi.DB) tebaldi.Gen {
	var seq atomic.Int64
	return func(*rand.Rand) tebaldi.Op {
		i := int(seq.Add(1) - 1)
		return tebaldi.Op{Type: "put", Fn: func(tx *tebaldi.Tx) error {
			val := make([]byte, 64)
			copy(val, fmt.Sprintf("v%d", i))
			return tx.Write(tebaldi.KeyOf("kv", i%recoveryKeys), val)
		}}
	}
}

// Experiments returns the evaluation, one entry per table or figure, in the
// order a full run executes them. It is THE list: tebaldi-bench's ids and
// -list, the go test -bench names and DESIGN.md's experiment index all
// come from it.
func Experiments() []Experiment {
	sc := seats.DefaultScale()
	three := tpcc.ConfigTebaldi3Layer
	const (
		inMemory = "measured (in-memory):"
		durable  = "measured (durability, group-commit pipeline):"
	)

	table31 := Experiment{
		ID:    "table3.1",
		Title: "Table 3.1 — impact of grouping on throughput (new_order + stock_level)",
		Paper: "paper (txn/s): same-group 3207 | separate-deadlock 158 | separate-no-deadlock 3598 | separate-no-conflict 23834",
	}
	for _, m := range []struct {
		label              string
		deadlock, disjoint bool
		config             string
	}{
		{"Same group", false, false, "same"},
		{"Separate - Deadlock", true, false, "deadlock"},
		{"Separate - No Deadlock", false, false, "separate"},
		{"Separate - No Conflict", false, true, "noconflict"},
	} {
		m := m
		table31.Cases = append(table31.Cases, Case{
			Label: m.label,
			Open: tpccDB(tpcc.PairSpecs(m.deadlock), tpcc.PairConfig(m.config),
				func(c *tpcc.Client) tebaldi.Gen { return c.PairGen(m.deadlock, m.disjoint) }),
		})
	}

	fig410 := Experiment{
		ID:    "fig4.10",
		Title: "Figure 4.10 — cross-group CC comparison",
		Paper: "paper shape: SSI wins rw-*; RP wins ww-5/ww-10; 2PL wins ww-1",
	}
	for _, wl := range []struct {
		name   string
		shared int
		ro     bool
	}{
		{"rw-1", 100, true}, {"rw-5", 20, true}, {"rw-10", 10, true},
		{"ww-1", 100, false}, {"ww-5", 20, false}, {"ww-10", 10, false},
	} {
		cg := micro.CrossGroup{SharedRows: wl.shared, ReadOnlyT1: wl.ro}
		for _, cross := range []tebaldi.Kind{tebaldi.TwoPL, tebaldi.SSI, tebaldi.RP} {
			fig410.Cases = append(fig410.Cases, Case{
				Label: string(cross) + " cross-group",
				Group: wl.name,
				Open: open(cg.Specs(), cg.Config(cross), func(db *tebaldi.DB) tebaldi.Gen {
					cg.Load(db)
					return cg.Mix
				}),
			})
		}
	}

	fig411 := Experiment{
		ID:    "fig4.11",
		Title: "Figure 4.11 — two-layer vs three-layer",
		Paper: "paper shape: three-layer peak ~ +63% over best two-layer",
	}
	tl := micro.ThreeLayer{}
	for _, name := range []string{"three-layer", "two-layer-1", "two-layer-2", "two-layer-3", "two-layer-4"} {
		fig411.Cases = append(fig411.Cases, Case{
			Label: name,
			Open: open(tl.Specs(), tl.Configs()[name], func(db *tebaldi.DB) tebaldi.Gen {
				tl.Load(db)
				return tl.Mix
			}),
		})
	}

	table41 := Experiment{
		ID:    "table4.1",
		Title: "Table 4.1 — cost of additional layers (conflict-free 7-write txn)",
		Paper: "paper: latency +3.3% (2PL-RP) +9.8% (SSI-RP) +36.3% (RP-RP); peak -21%/-25%/-40%",
	}
	for _, name := range []string{"stand-alone RP", "2PL - RP", "SSI - RP", "RP - RP"} {
		ov := &micro.Overhead{}
		table41.Cases = append(table41.Cases, Case{
			Label:   name,
			Open:    open(ov.Specs(), ov.Configs()[name], func(*tebaldi.DB) tebaldi.Gen { return ov.Next }),
			Measure: layerCost,
		})
	}

	return []Experiment{
		table31,
		{
			ID:    "fig4.7",
			Title: "Figure 4.7 — TPC-C throughput vs clients",
			Paper: "paper shape: SSI peak ~7x 2PL; Callas-2 ~ +77% over Callas-1; Tebaldi-2L ~2.6x best Callas; 3L +44% over 2L",
			Sweep: true,
			Cases: []Case{
				tpccCase("2PL", tpcc.ConfigMono2PL(), nil),
				tpccCase("SSI", tpcc.ConfigMonoSSI(), nil),
				tpccCase("Callas-1", tpcc.ConfigCallas1(), nil),
				tpccCase("Callas-2", tpcc.ConfigCallas2(), nil),
				tpccCase("Tebaldi 2-layer", tpcc.ConfigTebaldi2Layer(), nil),
				tpccCase("Tebaldi 3-layer", three(), nil),
			},
		},
		{
			ID:    "fig4.8",
			Title: "Figure 4.8 — SEATS throughput vs clients",
			Paper: "paper shape: 2-layer ~2.6x 2PL peak; 3-layer (per-flight TSO) ~2x 2-layer",
			Sweep: true,
			Cases: []Case{
				{Label: "Monolithic 2PL", Open: seatsDB(seats.ConfigMono2PL())},
				{Label: "2-layer (SSI + 2PL)", Open: seatsDB(seats.Config2Layer())},
				{Label: "3-layer (SSI + 2PL + TSO)", Open: seatsDB(seats.Config3Layer(sc))},
			},
		},
		{
			ID:    "sec4.6.3",
			Title: "§4.6.3 — hot_item extensibility",
			Paper: "paper: 3-layer 16417 txn/s, 4-layer 23232 txn/s (+42%)",
			Cases: []Case{
				{Label: "3-layer (hot_item merged)", Open: tpccDB(tpcc.Specs(true), tpcc.ConfigHot3Layer(), tpccHotMix)},
				{Label: "4-layer (hot_item own group)", Open: tpccDB(tpcc.Specs(true), tpcc.ConfigHot4Layer(), tpccHotMix)},
			},
		},
		fig410,
		fig411,
		table41,
		{
			ID:    "table4.2",
			Title: "Table 4.2 — durability overhead (TPC-C, 3-layer, async flushing)",
			Paper: "paper: ~5% overhead (22390 vs 23415 txn/s)",
			Cases: []Case{
				tpccCase("Durability OFF", three(), nil),
				tpccCase("Durability ON", three(), wal(false, 100*time.Millisecond)),
			},
		},
		{
			ID:    "fig5.5",
			Title: "Figure 5.5 — latency-based profiling misses the real bottleneck",
			Paper: `expected: payment latency grows with clients while stock_level's stays flat — the
latency-based technique would blame payment alone; the conflict-edge profiler
attributes blocked time to exact edges (in-process, stock_level's short reads
make payment<->payment genuinely dominant; on the paper's cluster the long
stock_level scans make payment<->stock_level the root cause).`,
			// The §5.3.1 case study (Figures 5.3-5.5): RP{payment} against
			// stock_level under 2PL, 80/20.
			Cases: []Case{{
				Label: "RP{payment} | stock_level",
				Tweak: profiling,
				Open: tpccDB(tpcc.Specs(false),
					tebaldi.Inner(tebaldi.TwoPL,
						tebaldi.Leaf(tebaldi.RP, tpcc.TxnPayment),
						tebaldi.Leaf(tebaldi.None, tpcc.TxnStockLevel)),
					func(c *tpcc.Client) tebaldi.Gen {
						return func(rng *rand.Rand) tebaldi.Op {
							if rng.Float64() < 0.8 {
								return c.Payment(rng)
							}
							return c.StockLevel(rng)
						}
					}),
			}},
			Run: profilingCaseStudy,
		},
		{
			ID:    "fig5.11",
			Title: "Figure 5.11 — automatic configuration, TPC-C",
			Paper: "paper shape: autoconf converges over a few iterations to ~90% of the manual 3-layer config",
			Cases: []Case{tpccCase("initial configuration (§5.2)", nil, profiling)},
			Run:   autoconf(three(), "Tebaldi 3-layer"),
		},
		{
			ID:    "fig5.14",
			Title: "Figure 5.14 — automatic configuration, SEATS",
			Cases: []Case{{Label: "initial configuration (§5.2)", Open: seatsDB(nil), Tweak: profiling}},
			Run:   autoconf(seats.Config3Layer(sc), "manual 3-layer"),
		},
		{
			ID:    "fig5.17",
			Title: "Figure 5.17 — profiling overhead (TPC-C, 3-layer)",
			Paper: "paper: a few percent",
			Cases: []Case{
				tpccCase("profiling OFF", three(), nil),
				{Label: "profiling ON", Open: tpccDB(tpcc.Specs(false), three(), tpccMix), Tweak: profiling, Measure: monitored},
			},
		},
		{
			ID:    "table5.1",
			Title: "Table 5.1 — partition-by-instance on SEATS",
			Paper: "paper shape: per-flight TSO instances roughly double throughput vs one TSO group",
			Cases: []Case{
				{Label: "single TSO group", Open: seatsDB(seats.Config3LayerSingleTSO())},
				{Label: "per-flight TSO (PBI)", Open: seatsDB(seats.Config3Layer(sc))},
			},
		},
		{
			ID:    "fig5.19",
			Title: "Figure 5.19 — reconfiguration protocols (TPC-C, third reconfiguration)",
			Paper: "paper shape: partial restart dips to ~0 during quiesce; online update keeps most throughput",
			Cases: []Case{tpccCase("Tebaldi 3-layer", three(), nil)},
			Run:   reconfiguration,
		},
		{
			// Table 5.2's question — MCC against a single-machine monolithic
			// database — with our own engine in single-shard mode under
			// monolithic CCs standing in for MySQL/Postgres (see DESIGN.md).
			ID:    "table5.2",
			Title: "Table 5.2 — single-machine comparison (substituted: monolithic CCs in-engine)",
			Cases: []Case{
				tpccCase("monolithic 2PL (1 shard)", tpcc.ConfigMono2PL(), oneShard),
				tpccCase("monolithic SSI (1 shard)", tpcc.ConfigMonoSSI(), oneShard),
				tpccCase("Tebaldi 3-layer (1 shard)", three(), oneShard),
			},
		},
		{
			// The YCSB core mixes (A update-heavy, B read-heavy, C read-only;
			// zipfian) — the write-heavy scenario the paper's TPC-C/SEATS
			// evaluation lacks — and the group-commit pipeline on YCSB-A.
			ID:    "ycsb",
			Title: "YCSB — core mixes and group-commit durability (not in the paper)",
			Cases: []Case{
				{Label: "YCSB-A (50/50)", Group: inMemory, Open: ycsbDB(ycsb.A()), Measure: withAllocs},
				{Label: "YCSB-B (95/5)", Group: inMemory, Open: ycsbDB(ycsb.B()), Measure: withAllocs},
				{Label: "YCSB-C (read-only)", Group: inMemory, Open: ycsbDB(ycsb.C()), Measure: withAllocs},
				{Label: "YCSB-A, async GCP flushing", Group: durable, Open: ycsbDB(ycsb.A()), Tweak: wal(false, 100*time.Millisecond), Measure: withWAL},
				{Label: "YCSB-A, sync group commit", Group: durable, Open: ycsbDB(ycsb.A()), Tweak: wal(true, 100*time.Millisecond), Measure: withWAL},
			},
		},
		{
			ID:    "recovery",
			Title: "recovery — checkpoint + log compaction bound restart (not in the paper)",
			Paper: `expected: checkpointing holds disk size and replay near the post-frontier tail,
independent of N; without it both grow linearly with history.`,
			Cases: []Case{{
				Label: "sync-commit puts",
				Open:  open(putSpecs, putConfig, putGen),
				Tweak: wal(true, 20*time.Millisecond),
			}},
			Run: recovery,
		},
		{
			ID:    "serve",
			Title: "serve — open-loop vs closed-loop through the networked front end (not in the paper)",
			Run:   serve,
		},
	}
}

// layerCost is Table 4.1's row: latency at low load (paper: 20 clients),
// then peak throughput at saturation.
func layerCost(p Params, db *tebaldi.DB, gen tebaldi.Gen) string {
	warmup, measure := p.windows()
	lat := Drive(db, gen, 8, warmup/2, measure/2)
	peak := p.drive(db, gen)
	return fmt.Sprintf("latency %8v   peak %9.0f txn/s",
		lat.MeanLatency[micro.TxnW7].Round(time.Microsecond), peak.Throughput)
}

func withAllocs(p Params, db *tebaldi.DB, gen tebaldi.Gen) string {
	res := p.drive(db, gen)
	return fmt.Sprintf("%s  %6.1f allocs/txn", res, res.AllocsPerTxn)
}

// withWAL reports the group-commit pipeline's batch size and flush latency.
func withWAL(p Params, db *tebaldi.DB, gen tebaldi.Gen) string {
	res := p.drive(db, gen)
	return fmt.Sprintf("%9.0f txn/s  abort %5.1f%%  batch %5.1f rec  flush %s",
		res.Throughput, 100*res.AbortRate, res.WalMeanBatch, res.WalMeanFlush)
}
