package server

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/tebaldi"
)

// countingConn counts the Write calls a Client makes on its connection: one
// per round trip is the point of leaving BEGIN and PUT unanswered.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// dialCounting is dialTest over a countingConn.
func dialCounting(t testing.TB, addr string) (*Client, *countingConn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	return NewClient(cc), cc
}

// wireTxn is the benchmark's transaction: BEGIN, GET, a PUT when update,
// COMMIT, through the four Sess calls.
func wireTxn(s *Sess, row string, update bool, val []byte) error {
	typ := "readonly"
	if update {
		typ = "update"
	}
	if err := s.Begin(typ, 0); err != nil {
		return err
	}
	if _, found, err := s.Get("kv", row); err != nil || !found {
		return fmt.Errorf("GET kv/%s: found %v, err %v", row, found, err)
	}
	if update {
		if err := s.Put("kv", row, val); err != nil {
			return err
		}
	}
	return s.Commit()
}

// TestTwoRoundTripsPerTxn pins the cost of a served transaction in counts,
// not in time: two client writes whatever the transaction does, three or
// four request frames and two replies.
func TestTwoRoundTripsPerTxn(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	srv.DB().Load(tebaldi.K("kv", "r"), []byte("loaded"))
	c, cc := dialCounting(t, addr)
	defer c.Close()
	s := c.Session()
	m := srv.Metrics()
	frames := func() uint64 { return m.FramesRead.Load() + m.FramesWritten.Load() }

	for _, tc := range []struct {
		name   string
		update bool
		frames uint64
	}{
		{"read-only", false, 5}, // BEGIN GET | VALUE, COMMIT | OK
		{"update", true, 6},     // BEGIN GET | VALUE, PUT COMMIT | OK
	} {
		for i := 0; i < 100; i++ {
			w0, f0 := cc.writes.Load(), frames()
			if err := wireTxn(s, "r", tc.update, []byte("v")); err != nil {
				t.Fatalf("%s transaction %d: %v", tc.name, i, err)
			}
			if w := cc.writes.Load() - w0; w != 2 {
				t.Fatalf("%s transaction %d: %d client writes, want 2", tc.name, i, w)
			}
			if f := frames() - f0; f != tc.frames {
				t.Fatalf("%s transaction %d: %d frames, want %d", tc.name, i, f, tc.frames)
			}
		}
	}
	if got := m.TxnCommits.Load(); got != 200 {
		t.Errorf("TxnCommits = %d, want 200", got)
	}
	if got := m.ProtocolErrors.Load(); got != 0 {
		t.Errorf("ProtocolErrors = %d, want 0", got)
	}
}

// TestReadOwnWriteAndEmptyTxn: a queued PUT is executed before the GET that
// carries it, and BEGIN+COMMIT with nothing between is one round trip.
func TestReadOwnWriteAndEmptyTxn(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	c, cc := dialCounting(t, addr)
	defer c.Close()
	s := c.Session()

	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kv", "own", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := s.Get("kv", "own"); err != nil || !found || string(v) != "mine" {
		t.Fatalf("GET of own PUT = %q, %v, %v; want mine", v, found, err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	w0, commits := cc.writes.Load(), srv.Metrics().TxnCommits.Load()
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("empty transaction: %v", err)
	}
	if w := cc.writes.Load() - w0; w != 1 {
		t.Errorf("empty transaction took %d client writes, want 1", w)
	}
	if got := srv.Metrics().TxnCommits.Load() - commits; got != 1 {
		t.Errorf("empty transaction: TxnCommits rose by %d, want 1", got)
	}
}

// TestBackToBackPutsKeepTheirValues pins who owns a PUT's value: the
// connection reader decodes every frame into one buffer, so the value the
// engine retains must be the copy dispatch makes. Without it the first PUT's
// version would alias the buffer the second PUT — same layout, other bytes —
// is then decoded into.
func TestBackToBackPutsKeepTheirValues(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	c := dialTest(t, addr)
	defer c.Close()
	s := c.Session()
	a, b := bytes.Repeat([]byte{'a'}, 100), bytes.Repeat([]byte{'b'}, 100)
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kv", "k1", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kv", "k2", b); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for row, want := range map[string][]byte{"k1": a, "k2": b} {
		if got := srv.DB().ReadCommitted(tebaldi.K("kv", row)); !bytes.Equal(got, want) {
			t.Errorf("kv/%s = %q, want %q", row, got, want)
		}
	}
	// And over the wire, where the client's reader reuses its buffer too:
	// the first value must survive the reply that follows it.
	if err := s.Begin("readonly", 0); err != nil {
		t.Fatal(err)
	}
	va, _, err := s.Get("kv", "k1")
	if err != nil {
		t.Fatal(err)
	}
	vb, _, err := s.Get("kv", "k2")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(va, a) || !bytes.Equal(vb, b) {
		t.Errorf("GETs returned %q and %q, want %q and %q", va, vb, a, b)
	}
}

// TestLongPutRunIsWrittenThrough: queued frames do not pile up in the client
// until COMMIT; past writeThrough bytes they are written out, unanswered, and
// the transaction still commits every one of them.
func TestLongPutRunIsWrittenThrough(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	c, cc := dialCounting(t, addr)
	defer c.Close()
	s := c.Session()
	const puts = 200
	val := bytes.Repeat([]byte{'x'}, 100)
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < puts; i++ {
		if err := s.Put("kv", fmt.Sprintf("k%d", i), val); err != nil {
			t.Fatal(err)
		}
		if len(s.out) >= writeThrough {
			t.Fatalf("%d bytes queued after PUT %d, want fewer than %d", len(s.out), i, writeThrough)
		}
	}
	if w := cc.writes.Load(); w < 2 {
		t.Errorf("%d client writes before COMMIT, want the PUTs written through", w)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().Writes.Load(); got != puts {
		t.Errorf("Writes = %d, want %d", got, puts)
	}
	if got := srv.Metrics().FramesWritten.Load(); got != 1 {
		t.Errorf("FramesWritten = %d, want 1: only COMMIT is answered", got)
	}
}

// TestAllocBudgetWireTxn is the rot guard for the wire path: a warm loopback
// BEGIN,GET,COMMIT transaction, client and server in this process, engine
// included. Measured 5 (39 before BEGIN and PUT went unanswered and the reused
// buffers): the transaction type and the key decoded into strings, the
// client's copy of the value, two in engine.Begin.
func TestAllocBudgetWireTxn(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	srv.DB().Load(tebaldi.K("kv", "r"), bytes.Repeat([]byte{'x'}, 100))
	c := dialTest(t, addr)
	defer c.Close()
	s := c.Session()
	allocs := testing.AllocsPerRun(2000, func() {
		if err := wireTxn(s, "r", false, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per BEGIN,GET,COMMIT wire transaction", allocs)
	const budget = 8
	if allocs > budget {
		t.Errorf("wire transaction allocates %.1f objects, budget %d", allocs, budget)
	}
}

// BenchmarkWireTxn is one closed-loop session over loopback; writes/txn is
// the count TestTwoRoundTripsPerTxn pins, printed next to the time it buys.
func BenchmarkWireTxn(b *testing.B) {
	for _, update := range []bool{false, true} {
		name := "readonly"
		if update {
			name = "update"
		}
		b.Run(name, func(b *testing.B) {
			srv, addr := newTestServer(b, tebaldi.Options{})
			val := bytes.Repeat([]byte{'x'}, 100)
			srv.DB().Load(tebaldi.K("kv", "r"), val)
			c, cc := dialCounting(b, addr)
			defer c.Close()
			s := c.Session()
			if err := wireTxn(s, "r", update, val); err != nil { // warm
				b.Fatal(err)
			}
			w0 := cc.writes.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := wireTxn(s, "r", update, val); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cc.writes.Load()-w0)/float64(b.N), "writes/txn")
		})
	}
}
