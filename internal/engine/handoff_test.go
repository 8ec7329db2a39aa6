package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// The handoff tests run on one processor, where "the woken transaction has
// run" can only mean that the waker let it: Go puts a goroutine woken by a
// channel close in its waker's run slot, and without the handoff the waker
// returns from Commit, and goes on to its next transaction, before it runs.
//
// A test parks its waiter deterministically: the waiter closes parked, which
// readies the test goroutine without giving it the processor, and goes on
// until it blocks in the wait under test; only then does the test goroutine
// run again.
//
// Each test plays its scenario several times and requires the handoff in
// most of them: to stay fair, the scheduler takes a goroutine from the
// global run queue first once in 61 schedules, and a yielding goroutine
// waits there, so about one yield in 60 gets the processor straight back.
// Without the handoff every round misses.

func inMostRounds(t *testing.T, what string, round func() bool) {
	t.Helper()
	const rounds = 8
	hit := 0
	for i := 0; i < rounds; i++ {
		if round() {
			hit++
		}
	}
	if 2*hit <= rounds {
		t.Errorf("%s in %d of %d rounds", what, hit, rounds)
	}
}

func oneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// handoffEngine opens an engine over tables a and b, whose one type "p"
// reads and writes both, in that order.
func handoffEngine(t *testing.T, cfg *NodeSpec) *Engine {
	t.Helper()
	specs := []*core.Spec{{Name: "p", Tables: []string{"a", "b"}, WriteTables: []string{"a", "b"}}}
	e, err := New(Options{Shards: 2, LockTimeout: 2 * time.Second, GCInterval: -1}, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for i := 0; i < 2; i++ {
		e.Load(core.KeyOf("a", i), []byte("init"))
		e.Load(core.KeyOf("b", i), []byte("init"))
	}
	return e
}

func beginP(t *testing.T, e *Engine) *Tx {
	t.Helper()
	tx, err := e.Begin("p", 0)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// waiter runs body on its own goroutine as transaction t2 and returns once
// body has closed parked and blocked. The returned function waits for the
// goroutine and reports whether body got past the wait (reached) and its
// error.
func waiter(e *Engine, body func(t2 *Tx, parked chan<- struct{}, reached *atomic.Bool) error) (finish func() error, reached *atomic.Bool) {
	reached = new(atomic.Bool)
	parked := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		t2, err := e.Begin("p", 0)
		if err != nil {
			close(parked)
			errc <- err
			return
		}
		errc <- body(t2, parked, reached)
	}()
	<-parked
	return func() error { return <-errc }, reached
}

// TestHandoffLockRelease: T2 blocks on T1's exclusive 2PL lock. When T1's
// Commit returns, T2 has been granted the lock.
func TestHandoffLockRelease(t *testing.T) {
	oneProc(t)
	e := handoffEngine(t, G(Kind2PL, []string{"p"}))
	k := core.KeyOf("a", 0)
	inMostRounds(t, "T2 had been granted the lock when T1's Commit returned", func() bool {
		t1 := beginP(t, e)
		if err := t1.Write(k, []byte("t1")); err != nil {
			t.Fatal(err)
		}
		finish, granted := waiter(e, func(t2 *Tx, parked chan<- struct{}, granted *atomic.Bool) error {
			close(parked)
			if err := t2.Write(k, []byte("t2")); err != nil {
				return err
			}
			granted.Store(true)
			return t2.Commit()
		})
		if err := t1.Commit(); err != nil {
			t.Fatal(err)
		}
		hit := granted.Load()
		if err := finish(); err != nil {
			t.Fatal(err)
		}
		return hit
	})
}

// TestHandoffStepAdvance: under a Runtime Pipelining leaf, T2 read T1's
// step-committed write of table a and is parked entering step b, where T1
// still is. When T1's Commit returns, T2 has entered step b.
func TestHandoffStepAdvance(t *testing.T) {
	oneProc(t)
	e := handoffEngine(t, G(KindRP, []string{"p"}))
	inMostRounds(t, "T2 had entered the step when T1's Commit returned", func() bool {
		t1 := beginP(t, e)
		if err := t1.Write(core.KeyOf("a", 0), []byte("t1")); err != nil {
			t.Fatal(err)
		}
		if err := t1.Write(core.KeyOf("b", 0), []byte("t1")); err != nil {
			t.Fatal(err)
		}
		finish, entered := waiter(e, func(t2 *Tx, parked chan<- struct{}, entered *atomic.Bool) error {
			_, err := t2.Read(core.KeyOf("a", 0))
			close(parked)
			if err != nil {
				return err
			}
			if err := t2.Write(core.KeyOf("b", 1), []byte("t2")); err != nil {
				return err
			}
			entered.Store(true)
			return t2.Commit()
		})
		if err := t1.Commit(); err != nil {
			t.Fatal(err)
		}
		hit := entered.Load()
		if err := finish(); err != nil {
			t.Fatal(err)
		}
		return hit
	})
}

// TestHandoffDependencyWait: T2 read T1's step-committed write and is in its
// commit's dependency wait on T1. When T1's Commit returns, so has T2's.
func TestHandoffDependencyWait(t *testing.T) {
	oneProc(t)
	e := handoffEngine(t, G(KindRP, []string{"p"}))
	inMostRounds(t, "T2's Commit had returned when T1's did", func() bool {
		t1 := beginP(t, e)
		if err := t1.Write(core.KeyOf("a", 0), []byte("t1")); err != nil {
			t.Fatal(err)
		}
		if err := t1.Write(core.KeyOf("b", 0), []byte("t1")); err != nil {
			t.Fatal(err)
		}
		finish, committed := waiter(e, func(t2 *Tx, parked chan<- struct{}, committed *atomic.Bool) error {
			_, err := t2.Read(core.KeyOf("a", 0))
			close(parked)
			if err != nil {
				return err
			}
			if err := t2.Commit(); err != nil {
				return err
			}
			committed.Store(true)
			return nil
		})
		if err := t1.Commit(); err != nil {
			t.Fatal(err)
		}
		hit := committed.Load()
		if err := finish(); err != nil {
			t.Fatal(err)
		}
		return hit
	})
}

// TestHandoffNoneWhenNobodyWoken: read-only transactions under 2PL take only
// shared locks, so nobody waits, nobody is woken and nobody yields.
func TestHandoffNoneWhenNobodyWoken(t *testing.T) {
	oneProc(t)
	e := handoffEngine(t, G(Kind2PL, []string{"p"}))
	const clients, txns = 4, 200
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				tx, err := e.Begin("p", 0)
				if err == nil {
					for _, k := range []core.Key{core.KeyOf("a", i%2), core.KeyOf("b", i%2)} {
						if _, err = tx.Read(k); err != nil {
							break
						}
						runtime.Gosched() // interleave the clients' lock holds
					}
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	snap := e.Stats().Snapshot()
	if snap.Commits != clients*txns {
		t.Fatalf("%d commits, want %d", snap.Commits, clients*txns)
	}
	if snap.Handoffs != 0 {
		t.Fatalf("%d handoffs in a read-only run, want 0", snap.Handoffs)
	}
}
