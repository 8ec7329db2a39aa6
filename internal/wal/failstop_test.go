package wal_test

import (
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kvstore"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/tebaldi"
)

// TestEngineFailStopsOnLogError drives the fail-stop contract through the
// engine's commit path: after one injected fsync failure no SyncCommit
// transaction is acknowledged again — the ones sharing the failed batch, the
// ones racing it and every later one get the non-retryable
// core.ErrDurability — while what was acknowledged before survives recovery.
func TestEngineFailStopsOnLogError(t *testing.T) {
	dir := t.TempDir()
	opts := engine.Options{
		Shards:         4,
		LockTimeout:    2 * time.Second,
		DurabilityDir:  dir,
		DurabilitySync: true,
		GCPEpoch:       time.Hour, // no seal reaches the appender before the hook is set
	}
	specs := []*core.Spec{{Name: "put", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}
	cfg := engine.G(engine.Kind2PL, []string{"put"})
	e, err := engine.New(opts, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fault wal.SyncFault
	wal.SetCrashHook(e.Wal(), fault.Hook)
	put := func(i int) error {
		return e.RunTxn("put", 0, func(tx *engine.Tx) error {
			if err := tx.Write(core.KeyOf("kv", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
			return tx.Write(core.KeyOf("kv", 1000+i), []byte("second shard, probably"))
		})
	}
	if err := put(0); err != nil {
		t.Fatalf("commit before the failure: %v", err)
	}

	fault.Arm()
	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = put(1 + i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		errs = append(errs, put(100+i))
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("transaction %d was acknowledged after the log failed", i)
		}
		if !errors.Is(err, core.ErrDurability) || core.IsRetryable(err) {
			t.Fatalf("transaction %d: got %v, want the non-retryable core.ErrDurability", i, err)
		}
	}
	snap := e.Stats().Snapshot()
	if snap.WalErrors == 0 {
		t.Fatal("stats counted no WAL error")
	}
	if err := e.Close(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("Close after a log failure returned %v", err)
	}

	e2, _, err := engine.Recover(opts, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := string(e2.ReadCommitted(core.KeyOf("kv", 0))); got != "v0" {
		t.Fatalf("acknowledged commit recovered as %q", got)
	}
	for i := 0; i < 4; i++ {
		if v := e2.ReadCommitted(core.KeyOf("kv", 100+i)); v != nil {
			t.Fatalf("kv/%d = %q: written after the log was poisoned", 100+i, v)
		}
	}
}

// TestEngineRefusesOversizedRecord: a transaction whose log record would
// exceed the store's record limit is refused before its commit point, with a
// non-retryable error that names the limit, and the log stays usable. Were
// it acknowledged, replay would end the log at its record and lose it and
// every record after it.
func TestEngineRefusesOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	opts := engine.Options{Shards: 4, LockTimeout: 2 * time.Second, DurabilityDir: dir, DurabilitySync: true}
	specs := []*core.Spec{{Name: "put", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}
	cfg := engine.G(engine.Kind2PL, []string{"put"})
	e, err := engine.New(opts, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	put := func(row string, v []byte) error {
		return e.RunTxn("put", 0, func(tx *engine.Tx) error { return tx.Write(core.Key{Table: "kv", Row: row}, v) })
	}
	err = put("big", make([]byte, kvstore.MaxValueLen))
	if err == nil || !errors.Is(err, wal.ErrTooLarge) || core.IsRetryable(err) || errors.Is(err, core.ErrDurability) {
		t.Fatalf("oversized commit returned %v, want the non-retryable wal.ErrTooLarge", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprint(kvstore.MaxValueLen)) {
		t.Fatalf("refusal does not name the limit: %v", err)
	}
	if err := e.Wal().Err(); err != nil {
		t.Fatalf("the refusal poisoned the log: %v", err)
	}
	if err := put("small", []byte("after")); err != nil {
		t.Fatalf("commit after the refusal: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, _, err := engine.Recover(opts, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := string(e2.ReadCommitted(core.Key{Table: "kv", Row: "small"})); got != "after" {
		t.Fatalf("the commit after the refusal recovered as %q", got)
	}
	if v := e2.ReadCommitted(core.Key{Table: "kv", Row: "big"}); v != nil {
		t.Fatalf("the refused write recovered, %d bytes", len(v))
	}
}

// TestServedCommitFailStops carries the fail-stop contract across the wire:
// a COMMIT whose fsync failed, and every COMMIT after it, reaches the client
// as the non-retryable core.ErrDurability under its own code — not as
// CodeInternal, which a client cannot tell from a server bug. Shutdown then
// does not wait for a write transaction held open on another session, which
// could never commit: it returns at once with the log failure. The test lives
// here, not in package server, because the fault-injection seam does.
func TestServedCommitFailStops(t *testing.T) {
	specs := []*tebaldi.Spec{{Name: "update", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}
	db, err := tebaldi.Open(tebaldi.Options{
		LockTimeout:    2 * time.Second,
		DurabilityDir:  t.TempDir(),
		DurabilitySync: true,
		GCPEpoch:       time.Hour, // no seal reaches the appender before the hook is set
	}, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fault wal.SyncFault
	wal.SetCrashHook(db.Engine().Wal(), fault.Hook)
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		srv.Shutdown(2 * time.Second)
		if err := db.Close(); !errors.Is(err, wal.ErrInjected) {
			t.Errorf("Close after a log failure returned %v", err)
		}
	}()
	c, err := server.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	put := func(row string) error {
		s := c.Session()
		if err := s.Begin("update", 0); err != nil {
			return err
		}
		if err := s.Put("kv", row, []byte("v")); err != nil {
			return err
		}
		return s.Commit()
	}
	walFailed := func() string {
		rec := httptest.NewRecorder()
		srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "tebaldi_wal_failed "); ok {
				return v
			}
		}
		t.Fatal("no tebaldi_wal_failed in /metrics")
		return ""
	}
	if err := put("before"); err != nil {
		t.Fatalf("commit before the failure: %v", err)
	}
	held := c.Session()
	if err := held.Begin("update", 0); err != nil {
		t.Fatal(err)
	}
	if err := held.Put("kv", "held", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := held.Get("kv", "held"); err != nil { // sends the queued BEGIN and PUT
		t.Fatal(err)
	}
	if got := walFailed(); got != "0" {
		t.Fatalf("tebaldi_wal_failed %s before the failed flush, want 0", got)
	}
	fault.Arm()
	for _, row := range []string{"failed flush", "poisoned log"} {
		err := put(row)
		var we *server.WireError
		if !errors.As(err, &we) || we.Code != server.CodeDurability {
			t.Fatalf("%s: got %v, want a WireError with CodeDurability", row, err)
		}
		if !errors.Is(err, core.ErrDurability) || core.IsRetryable(err) {
			t.Fatalf("%s: got %v, want the non-retryable core.ErrDurability", row, err)
		}
	}
	if got := walFailed(); got != "1" {
		t.Fatalf("tebaldi_wal_failed %s after the failed flush, want 1", got)
	}
	start := time.Now()
	err = srv.Shutdown(10 * time.Second)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Shutdown of a server on a failed log took %v waiting for the held transaction", took)
	}
	if !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("Shutdown of a server on a failed log returned %v, want the log failure", err)
	}
}
