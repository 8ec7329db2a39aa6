// Command benchmark is the repository's one performance instrument: four
// closed-loop workloads, five end-to-end metrics each, and a traced run that
// attributes a transaction's time to the wire, the engine, the CC tree and the
// WAL. README.md beside this file says what each number means and how the
// layers are expected to move the end-to-end metrics.
//
//	bash benchmark/run.sh                         every workload, end to end
//	bash benchmark/run.sh -trace 1 -out FILE      ... plus the per-layer run
//	bash benchmark/run.sh -workload kv_wire       one workload
//	bash benchmark/run.sh compare A.json B.json   two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the baseline's median it may worsen by
}

// endToEnd is what a user of the system sees. BENCHMARK.json carries the same
// table; benchmark_test.go keeps the two equal. README.md says why each bound
// is what it is.
var endToEnd = []metricDef{
	{"throughput_txn_s", "txn/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p95_us", "us", "lower", 0.25},
	// 1 − failed_share: the contract wants metrics that are never 0, and
	// the share of attempted transactions that committed is 1 when all is
	// well. The bound is ISSUE 11's absolute 0.001.
	{"committed_share", "ratio", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is every metric of the traced run, grouped by the module it
// measures. README.md says which end-to-end metric each should move, on
// which workload.
var perLayer = []metricDef{
	{name: "engine.begin_us", unit: "us", better: "lower"},
	{name: "engine.body_us", unit: "us", better: "lower"},
	{name: "engine.commit_us", unit: "us", better: "lower"},
	{name: "engine.rollback_us", unit: "us", better: "lower"},
	{name: "engine.read_ns", unit: "ns", better: "lower"},
	{name: "engine.write_ns", unit: "ns", better: "lower"},
	{name: "engine.retries_per_txn", unit: "count", better: "lower"},
	{name: "engine.abort_timeout_share", unit: "ratio", better: "lower"},
	{name: "engine.abort_conflict_share", unit: "ratio", better: "lower"},
	{name: "engine.abort_pivot_share", unit: "ratio", better: "lower"},
	{name: "engine.abort_cascade_share", unit: "ratio", better: "lower"},
	{name: "cc.block_us_per_txn", unit: "us", better: "lower"},
	{name: "cc.block_events_per_txn", unit: "count", better: "lower"},
	{name: "lockmgr.acquire_release_ns", unit: "ns", better: "lower"},
	{name: "storage.lookup_ns", unit: "ns", better: "lower"},
	{name: "storage.versions_per_key", unit: "count", better: "lower"},
	{name: "oracle.next_ns", unit: "ns", better: "lower"},
	{name: "wal.records_per_batch", unit: "count", better: "higher"},
	{name: "wal.flush_us", unit: "us", better: "lower"},
	{name: "wal.batches_per_txn", unit: "count", better: "lower"},
	{name: "wal.errors", unit: "count", better: "lower"},
	{name: "wal.log_bytes_per_txn", unit: "B", better: "lower"},
	{name: "wal.recover_ms", unit: "ms", better: "lower"},
	{name: "wal.replayed_records", unit: "count", better: "lower"},
	{name: "wal.sync_commit_us", unit: "us", better: "lower"},
	{name: "wal.async_commit_us", unit: "us", better: "lower"},
	{name: "kvstore.set_us", unit: "us", better: "lower"},
	{name: "kvstore.sync_us", unit: "us", better: "lower"},
	{name: "server.begin_rtt_us", unit: "us", better: "lower"},
	{name: "server.get_rtt_us", unit: "us", better: "lower"},
	{name: "server.put_rtt_us", unit: "us", better: "lower"},
	{name: "server.commit_rtt_us", unit: "us", better: "lower"},
	{name: "server.frames_per_txn", unit: "count", better: "lower"},
	{name: "server.protocol_errors", unit: "count", better: "lower"},
	{name: "server.decode_ns", unit: "ns", better: "lower"},
	{name: "server.inproc_txn_us", unit: "us", better: "lower"},
	{name: "server.overhead_us_per_txn", unit: "us", better: "lower"},
	{name: "runtime.allocs_per_txn", unit: "count", better: "lower"},
	{name: "runtime.bytes_per_txn", unit: "B", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.live_heap_mb", unit: "MB", better: "lower"},
	{name: "driver.self_us", unit: "us", better: "lower"},
	{name: "driver.backoff_us", unit: "us", better: "lower"},
	{name: "driver.txn_span_us", unit: "us", better: "lower"},
	{name: "driver.p99_us", unit: "us", better: "lower"},
	{name: "driver.p999_us", unit: "us", better: "lower"},
	{name: "driver.max_us", unit: "us", better: "lower"},
	{name: "driver.first_last_ratio", unit: "ratio", better: "higher"},
	{name: "env.loopback_rtt_us", unit: "us", better: "lower"},
	{name: "env.fsync_us", unit: "us", better: "lower"},
	{name: "env.spin_ns", unit: "ns", better: "lower"},
	{name: "env.machine_factor", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// Env is the machine's calibration just before the workload ran (the
	// env.* layer metrics): what to look at first when two files disagree.
	Env map[string]float64 `json:"env"`
	// Repetitions holds every untraced repetition in the order it ran: its
	// end-to-end values in reference time, the same as the wall clock
	// measured them (raw.*), and the machine factor that divides the two.
	Repetitions []map[string]float64 `json:"repetitions"`
	EndToEnd    map[string]summary   `json:"end_to_end"`
	Raw         map[string]summary   `json:"raw"`
	PerLayer    map[string]summary   `json:"per_layer,omitempty"`
	Error       string               `json:"error,omitempty"`
}

// resultFile is what -out writes: every metric, and enough about the machine
// and the inputs to run the same thing again.
type resultFile struct {
	GoVersion   string           `json:"go_version"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	NProc       int              `json:"nproc"`
	Seed        int64            `json:"seed"`
	WindowSecs  float64          `json:"window_seconds"`
	Repetitions int              `json:"repetitions"`
	Commit      string           `json:"commit"`
	Workloads   []workloadResult `json:"workloads"`
	// Claim stays null: the benchmark defines the baseline and claims no gain.
	Claim *string `json:"claim"`
}

// inReferenceTime converts one repetition's wall-clock measurements to
// reference time: while the machine ran at `factor` times the reference
// round trip, a wall-clock second was 1/factor reference seconds.
func inReferenceTime(raw map[string]float64, factor float64) map[string]float64 {
	out := map[string]float64{"machine_factor": factor}
	for k, v := range raw {
		out["raw."+k] = v
		switch k {
		case "throughput_txn_s":
			v *= factor
		case "p50_us", "p95_us", "setup_s":
			v /= factor
		}
		out[k] = v
	}
	return out
}

// runWorkload measures one workload: sh.extraSetups set-ups that are only
// timed, sh.reps untraced repetitions for the end-to-end metrics and, when
// probes (the layer probes' results) is not nil, one traced repetition for
// the per-layer ones. The machine clock ticks between repetitions, and each
// repetition is read in the mean of the two ticks round it.
func runWorkload(w *workload, seed int64, sh shape, probes map[string]float64, dir string) (workloadResult, []traceTree) {
	out := workloadResult{Name: w.name, Env: map[string]float64{}, EndToEnd: map[string]summary{}, Raw: map[string]summary{}}
	fail := func(err error) (workloadResult, []traceTree) {
		out.Correct = false
		out.Error = err.Error()
		return out, nil
	}

	clock, err := newMachineClock()
	if err != nil {
		return fail(err)
	}
	defer clock.close()
	if err := calibrate(dir, out.Env); err != nil {
		return fail(err)
	}
	vals := map[string][]float64{}
	var setups []float64
	for i := 0; i < sh.extraSetups; i++ {
		inst, setupS, err := timeSetup(w, repCtx{seed: seed, rep: -1 - i, dir: dir})
		if err != nil {
			return fail(err)
		}
		if err := inst.close(); err != nil {
			return fail(fmt.Errorf("%s: tear-down: %w", w.name, err))
		}
		setups = append(setups, setupS)
	}
	tick, err := clock.roundTripUs()
	if err != nil {
		return fail(err)
	}
	out.Env["env.loopback_rtt_us"] = tick
	for _, s := range setups {
		vals["raw.setup_s"] = append(vals["raw.setup_s"], s)
		vals["setup_s"] = append(vals["setup_s"], s/(tick/refRoundTripUs))
	}
	// timedRep runs one repetition and reads it in reference time.
	timedRep := func(rc repCtx) (*repResult, map[string]float64, error) {
		res, err := runRep(w, rc, sh)
		if res == nil {
			return nil, nil, err
		}
		before := tick
		var tickErr error
		if tick, tickErr = clock.roundTripUs(); tickErr != nil {
			return nil, nil, tickErr
		}
		return res, inReferenceTime(res.e2e, (before+tick)/2/refRoundTripUs), err
	}

	var committed uint64
	for rep := 0; rep < sh.reps; rep++ {
		res, ref, err := timedRep(repCtx{seed: seed, rep: rep, dir: dir})
		if res != nil {
			committed += res.committed
			out.Failed += res.failed
			out.Repetitions = append(out.Repetitions, ref)
			for k, v := range ref {
				vals[k] = append(vals[k], v)
			}
			if res.firstErr != nil && out.Error == "" {
				out.Error = fmt.Sprintf("first failed transaction: %v", res.firstErr)
			}
		}
		if err != nil {
			return fail(err)
		}
	}
	out.Attempted = committed + out.Failed
	for _, m := range endToEnd {
		out.EndToEnd[m.name] = summarize(m.unit, vals[m.name])
		if m.name != "committed_share" {
			out.Raw[m.name] = summarize(m.unit, vals["raw."+m.name])
		}
	}
	out.Raw["machine_factor"] = summarize("ratio", vals["machine_factor"])
	// One repetition that loses transactions must show, so this one metric
	// is the whole run's share and not the median repetition's.
	share := out.EndToEnd["committed_share"]
	share.Value = float64(committed) / float64(out.Attempted)
	out.EndToEnd["committed_share"] = share
	out.Correct = true
	if probes == nil {
		return out, nil
	}

	// Layer metrics are wall-clock values of the traced repetition;
	// env.machine_factor says how fast the machine was while it ran.
	res, ref, err := timedRep(repCtx{seed: seed, rep: sh.reps, traced: true, dir: dir})
	if err != nil {
		return fail(err)
	}
	layers := res.layers
	for k, v := range out.Env {
		layers[k] = v
	}
	layers["env.machine_factor"] = ref["machine_factor"]
	layers["trace.overhead_pct"] = 100 * (1 - ref["throughput_txn_s"]/out.EndToEnd["throughput_txn_s"].Value)
	if w.name == "kv_wire" {
		// The same mix straight at the engine, right after the traced wire
		// repetition: what is left of the wire p50 after the in-process
		// p50 is the served path's own cost.
		in, err := runRep(kvInproc, repCtx{seed: seed, rep: sh.reps, traced: true, dir: dir}, sh)
		if err != nil {
			return fail(err)
		}
		for _, k := range []string{"engine.begin_us", "engine.body_us", "engine.commit_us", "engine.rollback_us"} {
			layers[k] = in.layers[k]
		}
		layers["server.inproc_txn_us"] = in.e2e["p50_us"]
		layers["server.overhead_us_per_txn"] = res.e2e["p50_us"] - in.e2e["p50_us"]
	}
	for k, v := range probes {
		layers[k] = v
	}
	out.PerLayer = map[string]summary{}
	for _, m := range perLayer {
		v := layers[m.name]
		out.PerLayer[m.name] = summary{Value: v, Unit: m.unit, Min: v, Max: v, N: 1}
	}
	return out, res.trees
}

// printMetrics writes one line per metric: workload metric value unit [min..max n=…].
func printMetrics(w io.Writer, r workloadResult) {
	line := func(name string, s summary, ok bool) {
		if ok {
			fmt.Fprintf(w, "%-16s %-28s %14.4f %-6s [%.4f..%.4f n=%d]\n", r.Name, name, s.Value, s.Unit, s.Min, s.Max, s.N)
		}
	}
	for _, m := range endToEnd {
		s, ok := r.EndToEnd[m.name]
		line(m.name, s, ok)
	}
	for _, name := range []string{"throughput_txn_s", "p50_us", "p95_us", "setup_s", "machine_factor"} {
		s, ok := r.Raw[name]
		line("raw."+name, s, ok)
	}
	for _, m := range perLayer {
		s, ok := r.PerLayer[m.name]
		line(m.name, s, ok)
	}
}

// contractLine is the driver's last-line JSON object: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func contractLine(r workloadResult, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if trace {
		src = r.PerLayer
	}
	metrics := map[string]value{}
	for k, s := range src {
		metrics[k] = value{s.Value, s.Unit}
	}
	buf, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(buf)
}

func commitHash() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		name    = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Int64("seed", 1, "the only workload input: every client's rng derives from it")
		seconds = flag.Int("seconds", 24, "measured seconds per workload, split over the repetitions")
		trace   = flag.Int("trace", 0, "1 adds the traced repetition and the layer probes")
		outPath = flag.String("out", "", "also write every metric to this file as JSON")
		dir     = flag.String("dir", "benchmark/out", "scratch directory (WAL files, trace.json); created if missing")
	)
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		os.Exit(2)
	}
	os.Exit(run(*name, *seed, standardShape(*seconds), *trace == 1, *outPath, *dir, os.Stdout))
}

func run(name string, seed int64, sh shape, trace bool, outPath, dir string, stdout io.Writer) int {
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = []*workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	file := resultFile{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: seed, WindowSecs: sh.window.Seconds(), Repetitions: sh.reps,
	}
	traces := map[string][]traceTree{}
	code := 0
	var probes map[string]float64
	if trace {
		probes = map[string]float64{}
		if err := runProbes(dir, probes); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	for _, w := range selected {
		res, trees := runWorkload(w, seed, sh, probes, dir)
		printMetrics(stdout, res)
		if res.Error != "" {
			fmt.Fprintf(os.Stderr, "benchmark: %s\n", res.Error)
		}
		if !res.Correct {
			code = 1
		}
		if trees != nil {
			traces[w.name] = trees
		}
		file.Workloads = append(file.Workloads, res)
	}
	if err := writeTraces(dir, traces); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	if outPath != "" {
		file.Commit = commitHash()
		buf, _ := json.MarshalIndent(file, "", "  ")
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	if len(selected) == 1 {
		fmt.Fprintln(stdout, contractLine(file.Workloads[0], trace))
	} else {
		fmt.Fprintln(stdout, `"claim": null`)
	}
	return code
}
