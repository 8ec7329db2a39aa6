package bench

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/tebaldi"
)

// serveParams are the shapes of the networked open-loop run.
type serveParams struct {
	conns       int
	rate        float64 // offered arrivals/sec
	count       int     // open-loop arrivals
	closedConns int     // closed-loop comparison concurrency
	closedN     int     // closed-loop comparison transactions
	keyspace    int
}

func (p Params) serveParams() serveParams {
	if p.Quick {
		return serveParams{conns: 128, rate: 1500, count: 4500, closedConns: 64, closedN: 3000, keyspace: 10000}
	}
	return serveParams{conns: 10000, rate: 4000, count: 80000, closedConns: 256, closedN: 30000, keyspace: 100000}
}

// serve measures the networked front end under OPEN-LOOP load: a fixed
// arrival rate over many thousands of idle-most-of-the-time connections,
// with every latency measured from the arrival's intended send time, so
// server stalls surface as tail latency instead of silently reducing the
// offered load (coordinated omission). A closed-loop run of the same
// workload follows for the delta the paper-style harness would report.
//
// With Params.Target set, an external tebaldi-server is driven (the 10k+
// connection configuration requires this: two processes split the file
// descriptor budget). Otherwise quick mode serves in-process, and full mode
// builds and spawns cmd/tebaldi-server, falling back to a reduced
// in-process run when the toolchain is unavailable.
func serve(_ *Experiment, p Params) error {
	w := p.Out
	sp := p.serveParams()
	raiseFDLimit()

	target := p.Target
	var stop func()
	var inproc *server.Server
	switch {
	case target != "":
		fmt.Fprintf(w, "driving external tebaldi-server at %s\n", target)
	case p.Quick:
		addr, shutdown, srv, err := startInProcess(sp.keyspace)
		if err != nil {
			return err
		}
		target, stop, inproc = addr, shutdown, srv
	default:
		addr, shutdown, err := spawnServer(w, sp.keyspace)
		if err != nil {
			fmt.Fprintf(w, "  (cannot spawn tebaldi-server: %v)\n", err)
			fmt.Fprintf(w, "  falling back to in-process server with %d connections (fd budget)\n", 6000)
			sp.conns = 6000
			sp.count = sp.count * 6 / 10
			var srv *server.Server
			addr, shutdown, srv, err = startInProcess(sp.keyspace)
			if err != nil {
				return err
			}
			inproc = srv
		}
		target, stop = addr, shutdown
	}
	if stop != nil {
		defer stop()
	}

	fmt.Fprintf(w, "open-loop vs closed-loop over %d connections (%d keys, 80%% readonly / 20%% update)\n",
		sp.conns, sp.keyspace)

	open, err := runLoad(target, sp, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  open loop   @ %5.0f txn/s offered: %s\n", sp.rate, open)

	closed, err := runLoad(target, sp, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  closed loop (no pacing):            %s\n", closed)
	fmt.Fprintf(w, "  coordinated-omission delta: open p999 %v vs closed p999 %v\n", open.P999, closed.P999)

	if inproc != nil {
		if pe := inproc.Metrics().ProtocolErrors.Load(); pe != 0 {
			return fmt.Errorf("serve: %d protocol errors during the run", pe)
		}
		fmt.Fprintf(w, "  protocol errors: 0\n")
	}

	return nil
}

// runLoad drives one loadgen run (open or closed loop) against target.
func runLoad(target string, sp serveParams, closedLoop bool) (*loadgen.Report, error) {
	var mu sync.Mutex
	clients := make([]*server.Client, 0, sp.conns)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	count, conns := sp.count, sp.conns
	if closedLoop {
		// Closed loop runs at conventional benchmark concurrency: the
		// point of the comparison is the latency a closed-loop harness
		// would report at a similar committed throughput.
		count, conns = sp.closedN, sp.closedConns
	}
	rep, err := loadgen.Run(loadgen.Options{
		Workers:    conns,
		Rate:       sp.rate,
		Count:      count,
		ClosedLoop: closedLoop,
	}, func(worker int) (loadgen.Exec, error) {
		c, err := server.Dial(target)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		clients = append(clients, c)
		mu.Unlock()
		sess := c.Session()
		rng := rand.New(rand.NewSource(int64(worker) + 1))
		return func(i int) error { return kvTxn(sess, rng, sp.keyspace) }, nil
	})
	return rep, err
}

// kvTxn runs one uniformly random transaction — 80% single-key readonly,
// 20% read-modify-write — retrying system aborts after core.RetryBackoff like
// an in-process client would; the retry time, back-off included, stays
// inside the arrival's measured latency.
func kvTxn(sess *server.Sess, rng *rand.Rand, keyspace int) error {
	row := fmt.Sprintf("k%d", rng.Intn(keyspace))
	update := rng.Intn(100) < 20
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		lastErr = func() error {
			typ := "readonly"
			if update {
				typ = "update"
			}
			if err := sess.Begin(typ, 0); err != nil {
				return err
			}
			if _, _, err := sess.Get("kv", row); err != nil {
				return err
			}
			if update {
				if err := sess.Put("kv", row, []byte(fmt.Sprintf("v%d", rng.Int63()))); err != nil {
					return err
				}
			}
			return sess.Commit()
		}()
		if lastErr == nil {
			return nil
		}
		if !core.IsRetryable(lastErr) {
			return lastErr
		}
		time.Sleep(core.RetryBackoff(attempt, rng.Intn))
	}
	return lastErr
}

// startInProcess opens a DB with the server's generic KV schema and serves
// it on a loopback listener in this process.
func startInProcess(keyspace int) (addr string, stop func(), srv *server.Server, err error) {
	db, err := tebaldi.Open(dbOptions(),
		[]*tebaldi.Spec{
			{Name: "update", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
			{Name: "readonly", ReadOnly: true, Tables: []string{"kv"}},
		}, nil)
	if err != nil {
		return "", nil, nil, err
	}
	val := []byte(strings.Repeat("x", 100))
	for i := 0; i < keyspace; i++ {
		db.Load(tebaldi.K("kv", fmt.Sprintf("k%d", i)), val)
	}
	srv = server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return "", nil, nil, err
	}
	go srv.Serve(ln)
	stop = func() {
		srv.Shutdown(5 * time.Second)
		db.Close()
	}
	return ln.Addr().String(), stop, srv, nil
}

// spawnServer builds cmd/tebaldi-server (or takes $TEBALDI_SERVER_BIN) and
// starts it as a child process, returning its protocol address once ready.
func spawnServer(w interface{ Write([]byte) (int, error) }, preload int) (addr string, stop func(), err error) {
	bin := os.Getenv("TEBALDI_SERVER_BIN")
	// tmp holds a binary built here; stop removes it, and so does a failed
	// start.
	var tmp string
	defer func() {
		if err != nil && tmp != "" {
			os.RemoveAll(tmp)
		}
	}()
	if bin == "" {
		if tmp, err = os.MkdirTemp("", "tebaldi-server"); err != nil {
			return "", nil, err
		}
		bin = filepath.Join(tmp, "tebaldi-server")
		build := exec.Command("go", "build", "-o", bin, "./cmd/tebaldi-server")
		if out, err := build.CombinedOutput(); err != nil {
			return "", nil, fmt.Errorf("go build ./cmd/tebaldi-server: %v (%s)", err, strings.TrimSpace(string(out)))
		}
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics", "", "-preload", fmt.Sprint(preload))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}

	// Readiness: the server prints "tebaldi-server listening on <addr>".
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintf(w, "  [server] %s\n", line)
		if rest, ok := strings.CutPrefix(line, "tebaldi-server listening on "); ok {
			addr = strings.Fields(rest)[0]
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return "", nil, fmt.Errorf("tebaldi-server never reported its address")
	}
	go func() { // keep draining child stdout so it never blocks on a full pipe
		for sc.Scan() {
		}
	}()

	stop = func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
		}
		if tmp != "" {
			os.RemoveAll(tmp)
		}
	}
	return addr, stop, nil
}
