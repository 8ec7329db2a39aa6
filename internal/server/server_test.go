package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
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
func newTestServer(t testing.TB, opts tebaldi.Options) (*Server, string) {
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

func dialTest(t testing.TB, addr string) *Client {
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

// wantCode fails the test unless err is a WireError carrying code.
func wantCode(t *testing.T, what string, err error, code byte) {
	t.Helper()
	var we *WireError
	if !errors.As(err, &we) || we.Code != code {
		t.Fatalf("%s: got %v, want WireError 0x%02x", what, err, code)
	}
}

// mustGet is a GET whose result does not matter: Begin and Put only queue
// their frames, and the tests that need them executed — a lock taken, a
// transaction open in the engine — force the round trip with it.
func mustGet(t *testing.T, s *Sess, row string) {
	t.Helper()
	if _, _, err := s.Get("kv", row); err != nil {
		t.Fatal(err)
	}
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

// TestServedRestartRecovers: a server restarted on the same DurabilityDir
// serves what it acknowledged before the restart — opening the database is
// the recovery. Write a key over the wire, shut the server down, close the
// database, reopen and serve it again, and GET the key.
func TestServedRestartRecovers(t *testing.T) {
	opts := tebaldi.Options{LockTimeout: 300 * time.Millisecond, DurabilityDir: t.TempDir(), DurabilitySync: true}
	serve := func() (*Server, *tebaldi.DB, *Client) {
		t.Helper()
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
		return srv, db, dialTest(t, ln.Addr().String())
	}
	stop := func(srv *Server, db *tebaldi.DB, c *Client) {
		t.Helper()
		c.Close()
		if err := srv.Shutdown(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	srv, db, c := serve()
	s := c.Session()
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kv", "a", []byte("before restart")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	stop(srv, db, c)

	srv, db, c = serve()
	defer stop(srv, db, c)
	s = c.Session()
	if err := s.Begin("readonly", 0); err != nil {
		t.Fatal(err)
	}
	v, found, err := s.Get("kv", "a")
	if err != nil || !found || string(v) != "before restart" {
		t.Fatalf("Get after restart = %q, %v, %v; want the acknowledged write", v, found, err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
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
	mustGet(t, s1, "hot")
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

// TestDoubleBeginRejected: a BEGIN inside a transaction ends that transaction
// — deferred, it cannot be refused on the spot and then leave the first one
// running — and the session's next reply-bearing call says so.
func TestDoubleBeginRejected(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	c := dialTest(t, addr)
	defer c.Close()
	s := c.Session()
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kv", "x", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kv", "x", []byte("skipped")); err != nil {
		t.Fatal(err)
	}
	wantCode(t, "COMMIT after double BEGIN", s.Commit(), CodeTxnOpen)
	// The error was reported once and left the session idle, the first
	// transaction rolled back.
	wantCode(t, "COMMIT on the idle session", s.Commit(), CodeNoTxn)
	if v := srv.DB().ReadCommitted(tebaldi.K("kv", "x")); v != nil {
		t.Errorf("kv/x = %q after the double BEGIN, want nothing committed", v)
	}
	if got := srv.DB().Engine().ActiveTxns(); got != 0 {
		t.Errorf("ActiveTxns = %d, want 0", got)
	}
	m := srv.Metrics()
	// One for the second BEGIN, one for the COMMIT without a transaction;
	// the skipped PUT is not an error of its own.
	if got := m.ProtocolErrors.Load(); got != 2 {
		t.Errorf("ProtocolErrors = %d, want 2", got)
	}
	if got := m.Writes.Load(); got != 1 {
		t.Errorf("Writes = %d, want 1 (the PUT after the failed BEGIN is skipped)", got)
	}
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kv", "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("transaction after the double BEGIN: %v", err)
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
	check("ABORT", s.Abort())
	// A PUT is deferred: its error is the answer to the session's next
	// reply-bearing request, here on a session id the server has not seen.
	put := c.Session()
	if err := put.Put("kv", "a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	_, _, err = put.Get("kv", "a")
	check("PUT", err)
	if err == nil || !strings.Contains(err.Error(), "PUT without BEGIN") {
		t.Errorf("GET after a PUT without BEGIN reported %v, want the PUT's error", err)
	}

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
	s := c.Session()
	if err := s.Begin("no-such-type", 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Get("kv", "a")
	wantCode(t, "GET after BEGIN of an unknown type", err, CodeUnknownType)
	// Reported once: the session is idle now.
	wantCode(t, "COMMIT on the idle session", s.Commit(), CodeNoTxn)
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
	mustGet(t, holder, "contended") // the PUT has its lock once this returns

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
	mustGet(t, s, "d") // the transaction is open on the server, not only queued here

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(5 * time.Second) }()
	waitFor(t, 2*time.Second, "Shutdown to set the drain flag", srv.draining.Load)

	// Draining: a new BEGIN is refused with CodeShutdown, reported — it is
	// deferred — by the session's next reply-bearing call.
	other := c.Session()
	if err := other.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := other.Get("kv", "d")
	wantCode(t, "GET after BEGIN while draining", err, CodeShutdown)

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
	mustGet(t, s, "abandoned")
	if err := srv.Shutdown(150 * time.Millisecond); err == nil {
		t.Fatal("Shutdown returned nil with an abandoned open transaction")
	}
	waitFor(t, 2*time.Second, "forced rollback of abandoned txn", func() bool {
		return srv.DB().Engine().ActiveTxns() == 0
	})
}

// TestRawProtocolErrors drives the wire directly: garbage framing must
// produce an ERR frame and a hangup, response-typed messages and a deferred
// flag on a request that must be answered a CodeBadRequest; plain BEGIN and PUT
// keep their OK.
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

	t.Run("deferred flag where a reply is owed", func(t *testing.T) {
		srv, addr := newTestServer(t, tebaldi.Options{})
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		bad := []*Message{
			{Type: MsgGet, SID: 1, Deferred: true},
			{Type: MsgCommit, SID: 2, Deferred: true},
			{Type: MsgAbort, SID: 3, Deferred: true},
			{Type: MsgOK, SID: 4, Deferred: true},
			{Type: MsgValue, SID: 5, Deferred: true},
			{Type: MsgErr, SID: 6, Deferred: true},
		}
		for _, req := range bad {
			if _, err := nc.Write(appendFrame(nil, req)); err != nil {
				t.Fatal(err)
			}
			m, err := ReadFrame(nc)
			if err != nil || m.Type != MsgErr || m.Code != CodeBadRequest || m.SID != req.SID || m.Deferred {
				t.Fatalf("deferred 0x%02x: got %v / %+v, want a plain ERR CodeBadRequest sid %d", req.Type, err, m, req.SID)
			}
		}
		if got := srv.Metrics().ProtocolErrors.Load(); got != uint64(len(bad)) {
			t.Errorf("ProtocolErrors = %d, want %d", got, len(bad))
		}
		if got := srv.Metrics().SessionsActive.Load(); got != 0 {
			t.Errorf("SessionsActive = %d, want 0: a refused frame opens no session", got)
		}
	})

	t.Run("plain and deferred requests on one session", func(t *testing.T) {
		srv, addr := newTestServer(t, tebaldi.Options{})
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		// A client that defers nothing gets one reply per request, as
		// before the deferred form existed.
		for _, req := range []*Message{
			{Type: MsgBegin, SID: 1, TxnType: "update"},
			{Type: MsgPut, SID: 1, Key: tebaldi.K("kv", "p"), Value: []byte("plain")},
			{Type: MsgCommit, SID: 1},
		} {
			if _, err := nc.Write(appendFrame(nil, req)); err != nil {
				t.Fatal(err)
			}
			want := appendFrame(nil, &Message{Type: MsgOK, SID: 1})
			got := make([]byte, len(want))
			if _, err := io.ReadFull(nc, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("plain 0x%02x: reply % x (%v), want % x", req.Type, got, err, want)
			}
		}
		// Four frames in one write, one reply: the deferred BEGIN fails,
		// the deferred PUT is skipped, the plain PUT is answered with the
		// BEGIN's error instead of being executed — and then the session
		// is idle, so COMMIT finds no transaction.
		var buf []byte
		buf = appendFrame(buf, &Message{Type: MsgBegin, SID: 1, TxnType: "no-such-type", Deferred: true})
		buf = appendFrame(buf, &Message{Type: MsgPut, SID: 1, Key: tebaldi.K("kv", "p"), Value: []byte("x"), Deferred: true})
		buf = appendFrame(buf, &Message{Type: MsgPut, SID: 1, Key: tebaldi.K("kv", "p"), Value: []byte("y")})
		buf = appendFrame(buf, &Message{Type: MsgCommit, SID: 1})
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		if m, err := ReadFrame(nc); err != nil || m.Type != MsgErr || m.Code != CodeUnknownType || m.SID != 1 {
			t.Fatalf("plain PUT after a failed deferred BEGIN: got %v / %+v, want ERR CodeUnknownType", err, m)
		}
		if m, err := ReadFrame(nc); err != nil || m.Type != MsgErr || m.Code != CodeNoTxn {
			t.Fatalf("COMMIT after the reported error: got %v / %+v, want ERR CodeNoTxn", err, m)
		}
		if v := srv.DB().ReadCommitted(tebaldi.K("kv", "p")); string(v) != "plain" {
			t.Errorf("kv/p = %q, want plain", v)
		}
		m := srv.Metrics()
		if r, w := m.FramesRead.Load(), m.FramesWritten.Load(); r != 7 || w != 5 {
			t.Errorf("frames read %d written %d, want 7 and 5", r, w)
		}
	})
}

// TestSessionCapPerConn: past maxSessionsPerConn sessions on one connection a
// BEGIN on a new session id is refused with CodeBadRequest, and the
// connection and the sessions it already has keep working.
func TestSessionCapPerConn(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var buf []byte
	for sid := uint32(1); sid <= maxSessionsPerConn; sid++ {
		buf = appendFrame(buf, &Message{Type: MsgBegin, SID: sid, TxnType: "readonly"})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxSessionsPerConn; i++ {
		if m, err := ReadFrame(nc); err != nil || m.Type != MsgOK {
			t.Fatalf("BEGIN %d of %d: got %v / %+v, want OK", i+1, maxSessionsPerConn, err, m)
		}
	}
	over := uint32(maxSessionsPerConn + 1)
	if _, err := nc.Write(appendFrame(nil, &Message{Type: MsgBegin, SID: over, TxnType: "readonly"})); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadFrame(nc); err != nil || m.Type != MsgErr || m.Code != CodeBadRequest || m.SID != over {
		t.Fatalf("BEGIN past the cap: got %v / %+v, want ERR CodeBadRequest sid %d", err, m, over)
	}
	// An existing session still reads and commits, on the same connection.
	for _, req := range []*Message{
		{Type: MsgGet, SID: 1, Key: tebaldi.K("kv", "p")},
		{Type: MsgCommit, SID: 1},
	} {
		if _, err := nc.Write(appendFrame(nil, req)); err != nil {
			t.Fatal(err)
		}
		if m, err := ReadFrame(nc); err != nil || m.Type == MsgErr || m.SID != 1 {
			t.Fatalf("0x%02x on an existing session after the refusal: got %v / %+v", req.Type, err, m)
		}
	}
	if got := srv.Metrics().SessionsActive.Load(); got != maxSessionsPerConn {
		t.Errorf("SessionsActive = %d, want %d", got, maxSessionsPerConn)
	}
}

// TestConflictMapsAcrossWire: a genuine CC conflict must arrive as a
// retryable wire error that still satisfies errors.Is against core errors —
// here from a deferred PUT, so it is COMMIT that reports it, once, and the
// session can run its retry at once.
func TestConflictMapsAcrossWire(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{LockTimeout: 100 * time.Millisecond})
	c := dialTest(t, addr)
	defer c.Close()

	holder := c.Session()
	if err := holder.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := holder.Put("kv", "w", []byte("h")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, holder, "w") // holder has the lock once this returns
	victim := c.Session()
	if err := victim.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := victim.Put("kv", "w", []byte("v")); err != nil {
		t.Fatal(err)
	}
	err := victim.Commit() // carries the PUT: lock wait -> timeout abort
	if err == nil {
		t.Fatal("second writer committed while the lock was held")
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
	// The abort left the victim's session idle: the retry runs on it.
	if err := victim.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := victim.Put("kv", "w", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := victim.Commit(); err != nil {
		t.Fatalf("retry on the same session: %v", err)
	}
	if v := srv.DB().ReadCommitted(tebaldi.K("kv", "w")); string(v) != "v" {
		t.Errorf("kv/w = %q after the retry, want v", v)
	}
	if got := srv.Metrics().ProtocolErrors.Load(); got != 0 {
		t.Errorf("ProtocolErrors = %d, want 0: an engine abort is not a protocol error", got)
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
