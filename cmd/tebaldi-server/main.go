// Command tebaldi-server exposes a Tebaldi database over TCP, speaking the
// length-prefixed binary protocol of internal/server (BEGIN/GET/PUT/COMMIT/
// ABORT with multiplexed sessions), with a Prometheus-style /metrics
// endpoint on a second port.
//
// The server registers a generic key-value schema: transaction type
// "update" (read-write) and "readonly" (read-only) over table "kv",
// federated by the paper's §5.2 starting configuration — SSI at the root
// separating the read-only group from a 2PL update group. Drive it with
// `tebaldi-bench -target <addr> serve` or any internal/server client.
//
// Usage:
//
//	tebaldi-server [-addr host:port] [-metrics host:port] [-preload n]
//	               [-shards n] [-lock-timeout d] [-durability dir] [-sync]
//	               [-checkpoint-every d] [-drain d]
//
// On SIGINT/SIGTERM the server drains: new transactions are rejected,
// in-flight commits complete, then connections close.
//
// With -durability DIR the server recovers DIR's log when it starts, so a
// restart serves every write the previous run committed durably (every
// acknowledged one under -sync). -preload then fills only the keys the log
// does not hold: preloaded values are not logged.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/tebaldi"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7421", "protocol listen address")
	metricsAddr := flag.String("metrics", "127.0.0.1:7423", "metrics listen address (empty = disabled)")
	preload := flag.Int("preload", 100000, "keys kv/k0..kN-1 preloaded with 100-byte values")
	shards := flag.Int("shards", 16, "storage shards")
	lockTimeout := flag.Duration("lock-timeout", 400*time.Millisecond, "lock/dependency wait bound")
	durability := flag.String("durability", "", "WAL directory (empty = in-memory only)")
	sync := flag.Bool("sync", false, "synchronous commits (wait for the group-commit flush)")
	checkpointEvery := flag.Duration("checkpoint-every", 0, "periodic checkpoint interval (0 = off; requires -durability)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
	flag.Parse()

	if err := run(*addr, *metricsAddr, *preload, *shards, *lockTimeout, *durability, *sync, *checkpointEvery, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "tebaldi-server: %v\n", err)
		os.Exit(1)
	}
}

// Specs returns the generic KV transaction types the server registers.
func specs() []*tebaldi.Spec {
	return []*tebaldi.Spec{
		{Name: "update", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
		{Name: "readonly", ReadOnly: true, Tables: []string{"kv"}},
	}
}

func run(addr, metricsAddr string, preload, shards int, lockTimeout time.Duration, durability string, sync bool, checkpointEvery, drain time.Duration) error {
	db, err := tebaldi.Open(tebaldi.Options{
		Shards:          shards,
		LockTimeout:     lockTimeout,
		DurabilityDir:   durability,
		DurabilitySync:  sync,
		CheckpointEvery: checkpointEvery,
	}, specs(), nil)
	if err != nil {
		return err
	}
	defer db.Close()

	val := make([]byte, 100)
	for i := range val {
		val[i] = 'x'
	}
	for i := 0; i < preload; i++ {
		if k := tebaldi.K("kv", fmt.Sprintf("k%d", i)); db.ReadCommitted(k) == nil {
			db.Load(k, val)
		}
	}

	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The "listening on" line is a tiny readiness protocol: spawners
	// (bench, CI smoke) wait for it and parse the resolved address, which
	// matters when -addr ends in :0.
	fmt.Printf("tebaldi-server listening on %s (tree %s, %d keys preloaded)\n",
		ln.Addr(), db.ConfigString(), preload)

	var metricsSrv *http.Server
	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			ln.Close()
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		// Live profiling endpoints on the (loopback-by-default) metrics
		// listener: `go tool pprof http://.../debug/pprof/profile` against
		// a serving instance is the workflow that drove the hot-path
		// optimization pass (DESIGN.md, profiling workflow).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		metricsSrv = &http.Server{Handler: mux}
		fmt.Printf("metrics on http://%s/metrics (pprof on /debug/pprof/)\n", mln.Addr())
		go func() {
			metricsSrv.Serve(mln)
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("received %s, draining (timeout %s)...\n", sig, drain)
		if err := srv.Shutdown(drain); err != nil {
			return err
		}
		if metricsSrv != nil {
			metricsSrv.Close()
		}
		fmt.Println("drained cleanly")
		return nil
	}
}
