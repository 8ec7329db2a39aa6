package server

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/tebaldi"
)

// kvSpecs is the generic schema the tests serve: a 2PL-regulated update
// type and a no-CC read-only type under an SSI root (tebaldi.InitialConfig).
func kvSpecs() []*tebaldi.Spec {
	return []*tebaldi.Spec{
		{Name: "update", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
		{Name: "readonly", ReadOnly: true, Tables: []string{"kv"}},
	}
}

// newTestServer starts a server over a fresh database on a loopback
// listener and tears both down with the test.
func newTestServer(t *testing.T, opts tebaldi.Options) (*Server, string) {
	t.Helper()
	if opts.LockTimeout == 0 {
		opts.LockTimeout = 300 * time.Millisecond
	}
	db, err := tebaldi.Open(opts, kvSpecs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Shutdown(2 * time.Second)
		db.Close()
	})
	return srv, ln.Addr().String()
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCommitVisibleAcrossConnections(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	c1 := dialTest(t, addr)
	defer c1.Close()
	s := c1.Session()
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kv", "a", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	c2 := dialTest(t, addr)
	defer c2.Close()
	s2 := c2.Session()
	if err := s2.Begin("readonly", 0); err != nil {
		t.Fatal(err)
	}
	v, found, err := s2.Get("kv", "a")
	if err != nil || !found || string(v) != "v1" {
		t.Fatalf("Get = %q, %v, %v; want v1", v, found, err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().TxnCommits.Load(); got != 2 {
		t.Errorf("TxnCommits = %d, want 2", got)
	}
}

// TestDisconnectMidTxnReleasesState is the session-lifecycle core: a client
// that vanishes mid-transaction must have its transaction aborted (engine
// stats) and its 2PL locks released (a second client can write the same key
// promptly).
func TestDisconnectMidTxnReleasesState(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	eng := srv.DB().Engine()

	c1 := dialTest(t, addr)
	s1 := c1.Session()
	if err := s1.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("kv", "hot", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if n := eng.ActiveTxns(); n != 1 {
		t.Fatalf("ActiveTxns = %d with one open wire txn", n)
	}
	abortsBefore := eng.Stats().Snapshot().Aborts

	// Vanish without COMMIT/ABORT: the server must roll the transaction
	// back on the disconnect path.
	c1.Close()
	waitFor(t, 2*time.Second, "disconnect rollback", func() bool {
		return eng.Stats().Snapshot().Aborts == abortsBefore+1 && eng.ActiveTxns() == 0
	})
	if got := srv.Metrics().DisconnectAborts.Load(); got != 1 {
		t.Errorf("DisconnectAborts = %d, want 1", got)
	}

	// The 2PL X-lock on kv/hot must be free: a fresh writer commits well
	// inside the lock timeout.
	c2 := dialTest(t, addr)
	defer c2.Close()
	s2 := c2.Session()
	start := time.Now()
	if err := s2.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s2.Put("kv", "hot", []byte("theirs")); err != nil {
		t.Fatalf("write after disconnect: %v", err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatalf("commit after disconnect: %v", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("post-disconnect write took %v — lock was not released promptly", d)
	}
	if got := srv.Metrics().SessionsActive.Load(); got != 1 {
		t.Errorf("SessionsActive = %d after first conn torn down, want 1", got)
	}
}

func TestDoubleBeginRejected(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	c := dialTest(t, addr)
	defer c.Close()
	s := c.Session()
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	err := s.Begin("update", 0)
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeTxnOpen {
		t.Fatalf("double BEGIN: got %v, want WireError CodeTxnOpen", err)
	}
	// The original transaction is unharmed by the protocol error.
	if err := s.Put("kv", "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().ProtocolErrors.Load(); got != 1 {
		t.Errorf("ProtocolErrors = %d, want 1", got)
	}
}

func TestOpsWithoutBeginRejected(t *testing.T) {
	_, addr := newTestServer(t, tebaldi.Options{})
	c := dialTest(t, addr)
	defer c.Close()

	check := func(what string, err error) {
		t.Helper()
		var we *WireError
		if !errors.As(err, &we) || we.Code != CodeNoTxn {
			t.Errorf("%s without BEGIN: got %v, want WireError CodeNoTxn", what, err)
		}
		if err != nil && tebaldi.IsRetryable(err) {
			t.Errorf("%s without BEGIN must not be retryable", what)
		}
	}
	s := c.Session()
	check("COMMIT", s.Commit())
	_, _, err := s.Get("kv", "a")
	check("GET", err)
	check("PUT", s.Put("kv", "a", []byte("v")))
	check("ABORT", s.Abort())

	// COMMIT right after a committed transaction (session now idle) is
	// equally invalid.
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	check("COMMIT after COMMIT", s.Commit())
}

func TestBeginUnknownTypeRejected(t *testing.T) {
	_, addr := newTestServer(t, tebaldi.Options{})
	c := dialTest(t, addr)
	defer c.Close()
	err := c.Session().Begin("no-such-type", 0)
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeUnknownType {
		t.Fatalf("unknown type: got %v, want WireError CodeUnknownType", err)
	}
}

// TestSessionMultiplexing proves per-session concurrency on ONE connection:
// a session stuck in a 2PL lock wait must not stall a sibling session.
func TestSessionMultiplexing(t *testing.T) {
	_, addr := newTestServer(t, tebaldi.Options{LockTimeout: 2 * time.Second})
	c := dialTest(t, addr)
	defer c.Close()

	holder := c.Session()
	if err := holder.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := holder.Put("kv", "contended", []byte("h")); err != nil {
		t.Fatal(err)
	}

	// blocked waits on holder's X-lock from a goroutine.
	blocked := c.Session()
	if err := blocked.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	blockedDone := make(chan error, 1)
	go func() {
		if err := blocked.Put("kv", "contended", []byte("b")); err != nil {
			blockedDone <- err
			return
		}
		blockedDone <- blocked.Commit()
	}()

	// A third session on the SAME connection must make progress while the
	// second is parked in the lock manager.
	free := c.Session()
	if err := free.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := free.Put("kv", "elsewhere", []byte("f")); err != nil {
		t.Fatal(err)
	}
	if err := free.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blockedDone:
		t.Fatalf("blocked session finished (%v) before the lock was released", err)
	default:
	}

	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-blockedDone; err != nil {
		t.Fatalf("blocked session after lock release: %v", err)
	}
}

// TestDrainWaitsForInFlightCommits: Shutdown must reject new transactions
// but let open ones finish — and only then close connections.
func TestDrainWaitsForInFlightCommits(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	c := dialTest(t, addr)
	defer c.Close()

	s := c.Session()
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kv", "d", []byte("v")); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(5 * time.Second) }()

	// Draining: new BEGINs are rejected with CodeShutdown (poll: the flag
	// flips on the shutdown goroutine).
	other := c.Session()
	waitFor(t, 2*time.Second, "drain to start rejecting BEGIN", func() bool {
		err := other.Begin("update", 0)
		if err == nil {
			// Raced ahead of the drain flag; clean up and retry.
			if err := other.Abort(); err != nil {
				return false
			}
			return false
		}
		var we *WireError
		return errors.As(err, &we) && we.Code == CodeShutdown
	})

	// The drain must still be waiting on our open transaction.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a transaction still open", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Finish the in-flight transaction: the commit must succeed and the
	// drain must then complete cleanly.
	if err := s.Commit(); err != nil {
		t.Fatalf("commit during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown after commit: %v", err)
	}
	if got := srv.DB().Engine().ActiveTxns(); got != 0 {
		t.Errorf("ActiveTxns = %d after drain", got)
	}
	// The committed write survived the drain.
	if v := srv.DB().ReadCommitted(tebaldi.K("kv", "d")); string(v) != "v" {
		t.Errorf("drained commit lost: ReadCommitted = %q", v)
	}
}

// TestDrainTimesOutOnAbandonedTxn: a client that holds a transaction open
// forever cannot wedge shutdown; the drain reports a timeout and the
// abandoned transaction is rolled back by the forced disconnect.
func TestDrainTimesOutOnAbandonedTxn(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	c := dialTest(t, addr)
	defer c.Close()
	s := c.Session()
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(150 * time.Millisecond); err == nil {
		t.Fatal("Shutdown returned nil with an abandoned open transaction")
	}
	waitFor(t, 2*time.Second, "forced rollback of abandoned txn", func() bool {
		return srv.DB().Engine().ActiveTxns() == 0
	})
}

// TestRawProtocolErrors drives the wire directly: garbage framing must
// produce an ERR frame and a hangup, response-typed messages a CodeBadRequest.
func TestRawProtocolErrors(t *testing.T) {
	t.Run("garbage length prefix", func(t *testing.T) {
		srv, addr := newTestServer(t, tebaldi.Options{})
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		m, err := ReadFrame(nc)
		if err != nil || m.Type != MsgErr || m.Code != CodeBadRequest {
			t.Fatalf("garbage framing: got %v / %+v, want ERR CodeBadRequest", err, m)
		}
		if _, err := ReadFrame(nc); err == nil {
			t.Fatal("connection stayed open after unrecoverable framing error")
		}
		if got := srv.Metrics().ProtocolErrors.Load(); got != 1 {
			t.Errorf("ProtocolErrors = %d, want 1", got)
		}
	})

	t.Run("response type from client", func(t *testing.T) {
		srv, addr := newTestServer(t, tebaldi.Options{})
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(appendFrame(nil, &Message{Type: MsgOK, SID: 9})); err != nil {
			t.Fatal(err)
		}
		m, err := ReadFrame(nc)
		if err != nil || m.Type != MsgErr || m.Code != CodeBadRequest || m.SID != 9 {
			t.Fatalf("client-sent OK: got %v / %+v, want ERR CodeBadRequest sid 9", err, m)
		}
		// Recoverable: the framing is intact, so the connection survives.
		if _, err := nc.Write(appendFrame(nil, &Message{Type: MsgBegin, SID: 1, TxnType: "update"})); err != nil {
			t.Fatal(err)
		}
		if m, err := ReadFrame(nc); err != nil || m.Type != MsgOK {
			t.Fatalf("BEGIN after recoverable protocol error: %v / %+v", err, m)
		}
		if got := srv.Metrics().ProtocolErrors.Load(); got != 1 {
			t.Errorf("ProtocolErrors = %d, want 1", got)
		}
	})
}

// TestConflictMapsAcrossWire: a genuine CC conflict must arrive as a
// retryable wire error that still satisfies errors.Is against core errors.
func TestConflictMapsAcrossWire(t *testing.T) {
	_, addr := newTestServer(t, tebaldi.Options{LockTimeout: 100 * time.Millisecond})
	c := dialTest(t, addr)
	defer c.Close()

	holder := c.Session()
	if err := holder.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := holder.Put("kv", "w", []byte("h")); err != nil {
		t.Fatal(err)
	}
	victim := c.Session()
	if err := victim.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	err := victim.Put("kv", "w", []byte("v")) // lock wait -> timeout abort
	if err == nil {
		t.Fatal("second writer succeeded while the lock was held")
	}
	if !tebaldi.IsRetryable(err) {
		t.Fatalf("wire conflict %v is not retryable via tebaldi.IsRetryable", err)
	}
	var we *WireError
	if !errors.As(err, &we) || !Retryable(we.Code) {
		t.Fatalf("wire conflict %v: code not retryable", err)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownBeforeServeStarts: `go srv.Serve(ln)` followed at once by
// Shutdown lets Shutdown run before the goroutine does (the benchmark's
// set-up-only repetitions of kv_wire do exactly that). Serve must then close
// the listener and return nil like after any Shutdown, not report an error.
func TestShutdownBeforeServeStarts(t *testing.T) {
	db, err := tebaldi.Open(tebaldi.Options{}, kvSpecs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener left open: Accept returned %v", err)
	}
}
