package server

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/tebaldi"
)

// scrape hits the /metrics handler and parses the exposition into a
// name→value map, failing the test on any line that is not a comment or a
// well-formed `name value` sample.
func scrape(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}

	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?$`)
	helpRe := regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	out := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !helpRe.MatchString(line) {
				t.Errorf("malformed comment line %q", line)
			}
			if f := strings.Fields(line); f[1] == "TYPE" {
				if f[3] != "counter" && f[3] != "gauge" {
					t.Errorf("bad TYPE %q in %q", f[3], line)
				}
				if typed[f[2]] {
					t.Errorf("duplicate TYPE for family %s", f[2])
				}
				typed[f[2]] = true
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if !nameRe.MatchString(name) {
			t.Errorf("malformed series name %q", name)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
		if _, dup := out[name]; dup {
			t.Errorf("duplicate series %q", name)
		}
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		if !typed[family] {
			t.Errorf("series %q has no preceding TYPE for its family", name)
		}
		out[name] = v
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	srv, addr := newTestServer(t, tebaldi.Options{})
	base := scrape(t, srv)

	// Every advertised family is present from the first scrape.
	for _, name := range []string{
		"tebaldi_server_connections_total",
		"tebaldi_server_connections_active",
		"tebaldi_server_sessions_active",
		"tebaldi_server_frames_read_total",
		"tebaldi_server_frames_written_total",
		"tebaldi_server_protocol_errors_total",
		"tebaldi_server_txn_begins_total",
		"tebaldi_server_txn_commits_total",
		"tebaldi_server_txn_aborts_total",
		"tebaldi_server_disconnect_aborts_total",
		"tebaldi_server_reads_total",
		"tebaldi_server_writes_total",
		"tebaldi_server_txns_open",
		"tebaldi_engine_commits_total",
		"tebaldi_engine_aborts_total",
		"tebaldi_engine_handoffs_total",
		"tebaldi_engine_txns_active",
		"tebaldi_wal_batches_total",
		"tebaldi_checkpoints_total",
	} {
		if _, ok := base[name]; !ok {
			t.Errorf("series %s missing from /metrics", name)
		}
	}

	// Run a known operation mix: 3 commits (2 with a write, 1 read-only
	// with a read), 1 client abort.
	c := dialTest(t, addr)
	defer c.Close()
	s := c.Session()
	for i := 0; i < 2; i++ {
		if err := s.Begin("update", 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("kv", "m", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Begin("readonly", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("kv", "m"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}

	after := scrape(t, srv)

	// Exact deltas for the wire-level txn counters.
	for name, delta := range map[string]float64{
		"tebaldi_server_connections_total": 1,
		"tebaldi_server_txn_begins_total":  4,
		"tebaldi_server_txn_commits_total": 3,
		"tebaldi_server_txn_aborts_total":  1,
		"tebaldi_server_reads_total":       1,
		"tebaldi_server_writes_total":      2,
		"tebaldi_engine_commits_total":     3,
	} {
		if got := after[name] - base[name]; got != delta {
			t.Errorf("%s delta = %v, want %v", name, got, delta)
		}
	}
	// 11 requests crossed the wire for the mix above — 2×(BEGIN,PUT,COMMIT)
	// + (BEGIN,GET,COMMIT) + (BEGIN,ABORT) — and 5 responses: the client
	// defers its BEGINs and PUTs, which the server does not answer.
	if got := after["tebaldi_server_frames_read_total"] - base["tebaldi_server_frames_read_total"]; got != 11 {
		t.Errorf("frames_read delta = %v, want 11", got)
	}
	if got := after["tebaldi_server_frames_written_total"] - base["tebaldi_server_frames_written_total"]; got != 5 {
		t.Errorf("frames_written delta = %v, want 5", got)
	}
	// Per-type series appear once the types have committed/aborted.
	if v := after[`tebaldi_engine_type_commits_total{type="update"}`]; v != 2 {
		t.Errorf(`type_commits{update} = %v, want 2`, v)
	}
	if v := after[`tebaldi_engine_type_commits_total{type="readonly"}`]; v != 1 {
		t.Errorf(`type_commits{readonly} = %v, want 1`, v)
	}

	// Counters never decrease across scrapes (monotone), gauges may.
	third := scrape(t, srv)
	for name, v := range after {
		if strings.HasSuffix(name, "_total") || strings.Contains(name, "_total{") {
			if third[name] < v {
				t.Errorf("counter %s went backwards: %v -> %v", name, v, third[name])
			}
		}
	}
	if got := third["tebaldi_server_txns_open"]; got != 0 {
		t.Errorf("txns_open gauge = %v with nothing open", got)
	}
}
