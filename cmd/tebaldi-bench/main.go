// Command tebaldi-bench regenerates the tables and figures of the Tebaldi
// paper's evaluation (§4.6, §5.6). The experiment ids are the entries of
// internal/bench's table (bench.Experiments); see DESIGN.md for the index.
//
// Usage:
//
//	tebaldi-bench [-quick] [experiment ...]
//	tebaldi-bench -list
//
// With no experiment arguments, all experiments run in order.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "small client counts and short windows")
	list := flag.Bool("list", false, "list experiment ids and titles, and exit")
	target := flag.String("target", "", "drive an already running tebaldi-server at this address (serve experiment)")
	profDir := flag.String("pprof", "", "write cpu.pprof/heap.pprof covering the whole run to DIR (see DESIGN.md, profiling workflow)")
	flag.Parse()

	if *profDir != "" {
		if err := os.MkdirAll(*profDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			os.Exit(1)
		}
		cpuF, err := os.Create(filepath.Join(*profDir, "cpu.pprof"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			cpuF.Close()
			heapF, err := os.Create(filepath.Join(*profDir, "heap.pprof"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
				return
			}
			runtime.GC() // up-to-date allocation stats in the heap profile
			if err := pprof.WriteHeapProfile(heapF); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
			heapF.Close()
		}()
	}

	all := bench.Experiments()
	if *list {
		for _, x := range all {
			fmt.Printf("%-9s %s\n", x.ID, x.Title)
		}
		return
	}

	run := all
	if ids := flag.Args(); len(ids) > 0 {
		run = nil
		for _, id := range ids {
			i := slices.IndexFunc(all, func(x bench.Experiment) bool { return x.ID == id })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			run = append(run, all[i])
		}
	}
	p := bench.Params{Out: os.Stdout, Quick: *quick, Target: *target}
	for i := range run {
		fmt.Printf("\n==================== %s ====================\n", run[i].ID)
		if err := run[i].Print(p); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", run[i].ID, err)
			os.Exit(1)
		}
	}
}
