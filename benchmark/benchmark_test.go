package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs 1 × 200 ms of all four workloads with the traced run, and
// checks that what comes out is named exactly as BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	want := readBenchmarkJSON(t)
	dir := t.TempDir()
	outPath := filepath.Join(dir, "result.json")
	var stdout bytes.Buffer
	sh := shape{reps: 1, extraSetups: 1, warmup: 50 * time.Millisecond, window: 200 * time.Millisecond}
	if code := run("", 7, sh, true, outPath, dir, &stdout); code != 0 {
		t.Fatalf("run exited %d\n%s", code, stdout.String())
	}
	if !strings.HasSuffix(strings.TrimSpace(stdout.String()), `"claim": null`) {
		t.Errorf("summary does not end with \"claim\": null:\n%s", stdout.String())
	}
	got, err := readResult(outPath)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Workloads) != len(want.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json names %d", len(got.Workloads), len(want.Workloads))
	}
	for i, w := range got.Workloads {
		if w.Name != want.Workloads[i].Name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.Name, want.Workloads[i].Name)
		}
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, w.Correct, w.Attempted, w.Failed)
		}
		if len(w.EndToEnd) != len(want.EndToEnd) || len(w.PerLayer) != len(want.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, BENCHMARK.json has %d and %d",
				w.Name, len(w.EndToEnd), len(w.PerLayer), len(want.EndToEnd), len(want.PerLayer))
		}
		for _, m := range want.EndToEnd {
			s, ok := w.EndToEnd[m.Name]
			if !ok || s.Unit != m.Unit || !nameRE.MatchString(m.Name) {
				t.Errorf("%s: end-to-end %q missing or unit %q != %q", w.Name, m.Name, s.Unit, m.Unit)
			}
			if s.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, m.Name, s.Value)
			}
		}
		for _, m := range want.PerLayer {
			s, ok := w.PerLayer[m.Name]
			if !ok || s.Unit != m.Unit || !nameRE.MatchString(m.Name) {
				t.Errorf("%s: per-layer %q missing or unit %q != %q", w.Name, m.Name, s.Unit, m.Unit)
			}
		}

		// The children of a txn span tile it (shared boundary timestamps).
		l := func(name string) float64 { return w.PerLayer[name].Value }
		leaves := l("engine.begin_us") + l("engine.body_us") + l("engine.commit_us") + l("engine.rollback_us") + l("driver.backoff_us")
		if w.Name != "kv_wire" && math.Abs(leaves-l("driver.txn_span_us")) > 1e-6*l("driver.txn_span_us") {
			t.Errorf("%s: leaf spans sum to %v us, txn span is %v us", w.Name, leaves, l("driver.txn_span_us"))
		}

		// The driver's line: end-to-end metrics untraced, per-layer traced.
		for _, trace := range []bool{false, true} {
			var line struct {
				Correct           bool
				Attempted, Failed uint64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(w, trace)), &line); err != nil {
				t.Fatal(err)
			}
			n := len(want.EndToEnd)
			if trace {
				n = len(want.PerLayer)
			}
			if !line.Correct || len(line.Metrics) != n {
				t.Errorf("%s trace=%v: line has correct=%v and %d metrics, want %d", w.Name, trace, line.Correct, len(line.Metrics), n)
			}
		}
	}

	// The code's metric tables carry the same directions and bounds.
	for i, m := range want.EndToEnd {
		if d := endToEnd[i]; d.name != m.Name || d.better != m.Better || d.bound != m.Bound {
			t.Errorf("end-to-end %d: code has %+v, BENCHMARK.json %+v", i, d, m)
		}
	}
	for i, m := range want.PerLayer {
		if d := perLayer[i]; d.name != m.Name || d.better != m.Better {
			t.Errorf("per-layer %d: code has %+v, BENCHMARK.json %+v", i, d, m)
		}
	}

	// trace.json: every workload has sampled trees whose parents resolve.
	buf, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Workloads map[string][]traceTree }
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range want.Workloads {
		trees := doc.Workloads[w.Name]
		if len(trees) == 0 {
			t.Errorf("trace.json has no span tree for %s", w.Name)
		}
		for _, tr := range trees {
			last := tr.Spans[len(tr.Spans)-1]
			if last.Name != "txn" || last.Parent != -1 {
				t.Fatalf("%s: last span of a tree is %+v, want the txn span", tr.TraceID, last)
			}
			for _, sp := range tr.Spans[:len(tr.Spans)-1] {
				p := tr.Spans[sp.Parent]
				if sp.StartNs < p.StartNs || sp.EndNs > p.EndNs {
					t.Fatalf("%s: span %+v is not inside its parent %+v", tr.TraceID, sp, p)
				}
			}
		}
	}
}

// recordingSource hashes every value a generator draws.
type recordingSource struct {
	src rand.Source64
	h   interface{ Write([]byte) (int, error) }
}

func (r *recordingSource) Seed(int64) { panic("generators must not reseed") }
func (r *recordingSource) Int63() int64 {
	return int64(r.Uint64() >> 1)
}
func (r *recordingSource) Uint64() uint64 {
	v := r.src.Uint64()
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	r.h.Write(b[:])
	return v
}

func txnLabel(cl client) string {
	switch c := cl.(type) {
	case *inprocClient:
		return c.typ
	case *sentinelClient:
		return c.typ
	case *wireClient:
		return c.txn.typ() + c.txn.row + string(c.txn.val)
	}
	return "?"
}

// fingerprint hashes the first 10k transactions client c generates under
// seed: each one's type (for kv_wire its row and value too) and every random
// value its generator consumed, which together determine it.
func fingerprint(cl client, seed int64, c int) uint64 {
	h := fnv.New64a()
	src := rand.NewSource(streamSeed(seed, 0, int64(c), streamGen)).(rand.Source64)
	rng := rand.New(&recordingSource{src: src, h: h})
	for i := 0; i < 10000; i++ {
		cl.next(rng)
		h.Write([]byte(txnLabel(cl)))
	}
	return h.Sum64()
}

func TestSeedDeterminesTransactions(t *testing.T) {
	for _, w := range workloads {
		inst, err := w.setup(repCtx{seed: 1, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for c, cl := range inst.clients {
			a, again, b := fingerprint(cl, 11, c), fingerprint(cl, 11, c), fingerprint(cl, 12, c)
			if a != again {
				t.Errorf("%s client %d: the same seed generated different transactions", w.name, c)
			}
			if a == b {
				t.Errorf("%s client %d: seeds 11 and 12 generated the same transactions", w.name, c)
			}
			if c > 0 && a == fingerprint(inst.clients[0], 11, 0) {
				t.Errorf("%s: clients 0 and %d generate the same transactions", w.name, c)
			}
		}
		if err := inst.check(map[string]float64{}); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if err := inst.close(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestCompare(t *testing.T) {
	base := resultFile{}
	for _, w := range workloads {
		r := workloadResult{Name: w.name, Correct: true, EndToEnd: map[string]summary{}, Env: map[string]float64{"env.fsync_us": 200}}
		for _, m := range endToEnd {
			r.EndToEnd[m.name] = summary{Value: 100, Min: 98, Max: 103, N: 3, Unit: m.unit}
		}
		base.Workloads = append(base.Workloads, r)
	}
	write := func(name string, f resultFile) string {
		path := filepath.Join(t.TempDir(), name)
		buf, _ := json.Marshal(f)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// variant copies base with one workload's throughput and fsync changed.
	variant := func(tput summary, fsync float64) resultFile {
		v := resultFile{}
		for i, r := range base.Workloads {
			c := r
			if i == 1 {
				c.EndToEnd = map[string]summary{}
				for k, s := range r.EndToEnd {
					c.EndToEnd[k] = s
				}
				c.EndToEnd["throughput_txn_s"] = tput
				c.Env = map[string]float64{"env.fsync_us": fsync}
			}
			v.Workloads = append(v.Workloads, c)
		}
		return v
	}
	a := write("a.json", base)

	var out bytes.Buffer
	if code := compareMain([]string{a, a}, &out); code != 0 {
		t.Errorf("a file against itself exits %d", code)
	}
	if n := strings.Count(out.String(), verdictSame); n != len(workloads)*len(endToEnd) {
		t.Errorf("a file against itself: %d rows are %q, want %d\n%s", n, verdictSame, len(workloads)*len(endToEnd), out.String())
	}

	// A drop five points beyond the throughput bound (ISSUE 11's "synthetic
	// 15 % drop" against its 0.10 bound).
	low := 100 * (1 - endToEnd[0].bound - 0.05)
	out.Reset()
	drop := write("drop.json", variant(summary{Value: low, Min: low - 1, Max: low + 1, N: 3}, 200))
	if code := compareMain([]string{a, drop}, &out); code != 1 {
		t.Errorf("a throughput drop beyond the bound exits %d, want 1", code)
	}
	if strings.Count(out.String(), verdictWorse) != 1 || strings.Contains(out.String(), "warning") {
		t.Errorf("a throughput drop beyond the bound: want exactly one %q row and no warning\n%s", verdictWorse, out.String())
	}

	out.Reset()
	noisy := write("noisy.json", variant(summary{Value: low, Min: low - 5, Max: 101, N: 3}, 260))
	if code := compareMain([]string{a, noisy}, &out); code != 0 {
		t.Errorf("a drop inside the file's own spread exits %d, want 0", code)
	}
	if strings.Count(out.String(), verdictUnresolved) != 1 || !strings.Contains(out.String(), "warning: tpcc_3layer_mem env.fsync_us") {
		t.Errorf("a drop inside the spread with fsync 30 %% slower: want one %q row and an env warning\n%s", verdictUnresolved, out.String())
	}

	out.Reset()
	high := 100 * (1 + endToEnd[0].bound + 0.05)
	gain := write("gain.json", variant(summary{Value: high, Min: high - 1, Max: high + 1, N: 3}, 200))
	if code := compareMain([]string{a, gain}, &out); code != 0 || strings.Count(out.String(), verdictBetter) != 1 {
		t.Errorf("a gain beyond the bound: exit %d\n%s", code, out.String())
	}
}

func TestHistQuantiles(t *testing.T) {
	var a, b hist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		d := time.Duration(1000 + rng.Intn(1000000)) // uniform in 1 µs … 1 ms
		if i%2 == 0 {
			a.record(d)
		} else {
			b.record(d)
		}
	}
	a.merge(&b)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := 1000 + q*1000000
		if got := a.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%v = %.0f ns, want %.0f within 1 %%", q, got, want)
		}
	}
	if a.n != 200000 {
		t.Errorf("merged count %d", a.n)
	}
}

func TestInReferenceTime(t *testing.T) {
	raw := map[string]float64{"throughput_txn_s": 1000, "p50_us": 40, "p95_us": 90, "committed_share": 1, "setup_s": 0.2}
	// A machine running the reference task at half speed: a wall-clock
	// second is half a reference second.
	got := inReferenceTime(raw, 2)
	want := map[string]float64{"throughput_txn_s": 2000, "p50_us": 20, "p95_us": 45, "committed_share": 1, "setup_s": 0.1, "machine_factor": 2}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v in reference time, want %v", k, got[k], v)
		}
	}
	for k, v := range raw {
		if got["raw."+k] != v {
			t.Errorf("raw.%s = %v, want the wall-clock value %v", k, got["raw."+k], v)
		}
	}
}
