package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of compare. A change is judged on the medians: `worse` is beyond
// the metric's bound AND beyond what either file's own repetitions spread
// over; beyond the bound but inside that spread is `unresolved`, because the
// files cannot tell a regression from their own noise.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func judge(m metricDef, a, b summary) string {
	worsening := b.Value - a.Value // positive when b is worse than a
	if m.better == "higher" {
		worsening = -worsening
	}
	limit := m.bound * math.Abs(a.Value)
	spread := math.Max(a.Max-a.Min, b.Max-b.Min)
	switch {
	case worsening > limit && worsening > spread:
		return verdictWorse
	case worsening > limit:
		return verdictUnresolved
	case -worsening > limit:
		return verdictBetter
	}
	return verdictSame
}

func readResult(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain prints one row per workload × end-to-end metric of baseline A
// against candidate B and returns the exit code: 1 when any row is worse.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	byName := map[string]workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "B/A-1", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from %s\n", ra.Name, args[1])
			code = 1
			continue
		}
		for _, m := range endToEnd {
			sa, sb := ra.EndToEnd[m.name], rb.EndToEnd[m.name]
			v := judge(m, sa, sb)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %+8.1f%%  %s\n", ra.Name, m.name, sa.Value, sb.Value,
				100*(ratio(sb.Value, sa.Value)-1), v)
		}
		for _, k := range []string{"env.loopback_rtt_us", "env.fsync_us", "env.spin_ns"} {
			ea, eb := ra.Env[k], rb.Env[k]
			if ea == 0 || eb == 0 {
				continue
			}
			if d := eb/ea - 1; math.Abs(d) > 0.10 {
				fmt.Fprintf(w, "warning: %s %s differs by %+.0f%% (%.2f -> %.2f): the machine moved, not only the code\n",
					ra.Name, k, 100*d, ea, eb)
			}
		}
	}
	return code
}
