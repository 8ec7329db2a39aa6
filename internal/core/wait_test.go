package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

type recordingReporter struct {
	mu     sync.Mutex
	events []BlockEvent
}

func (r *recordingReporter) ReportBlock(ev BlockEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

const never = time.Duration(-1)

// signal returns a channel that is nil (never fires) for `never`, already
// closed for 0, and closed after d otherwise.
func signal(d time.Duration) <-chan struct{} {
	if d == never {
		return nil
	}
	ch := make(chan struct{})
	if d == 0 {
		close(ch)
	} else {
		time.AfterFunc(d, func() { close(ch) })
	}
	return ch
}

func TestEnvWait(t *testing.T) {
	// One step is one Env.Wait call; the steps of a case share one deadline,
	// as the waits of one Read / Acquire / WaitDeps do.
	type step struct {
		ready   time.Duration
		wantErr error
	}
	cases := []struct {
		name       string
		timeout    time.Duration
		reporter   bool
		blocker    bool
		steps      []step
		wantEvents int
		// clockUnstarted: the shared deadline is still zero afterwards, so
		// no wait got as far as reading the clock, let alone arming a timer.
		clockUnstarted bool
		// maxTotal, when set, bounds the wall-clock of all steps together.
		maxTotal time.Duration
	}{
		{
			name: "ready already closed returns before the clock", timeout: time.Nanosecond,
			reporter: true, blocker: true,
			steps:          []step{{ready: 0}},
			clockUnstarted: true,
		},
		{
			name: "expiry is ErrTimeout and one event naming the blocker", timeout: 5 * time.Millisecond,
			reporter: true, blocker: true,
			steps:      []step{{ready: never, wantErr: ErrTimeout}},
			wantEvents: 1,
		},
		{
			name: "ready wakes the waiter", timeout: time.Minute,
			reporter: true, blocker: true,
			steps:      []step{{ready: 2 * time.Millisecond}},
			wantEvents: 1,
		},
		{
			// Were the deadline restarted by the second wait, the pair
			// would take 300 + 400 ms.
			name: "successive waits share one LockTimeout", timeout: 400 * time.Millisecond,
			reporter: true, blocker: true,
			steps: []step{
				{ready: 300 * time.Millisecond},
				{ready: never, wantErr: ErrTimeout},
				{ready: never, wantErr: ErrTimeout}, // already expired: no wait, no event
			},
			wantEvents: 2,
			maxTotal:   600 * time.Millisecond,
		},
		{
			name: "nil blocker reports nothing", timeout: 5 * time.Millisecond,
			reporter: true,
			steps:    []step{{ready: never, wantErr: ErrTimeout}},
		},
		{
			name: "nil Reporter with a blocker", timeout: 5 * time.Millisecond,
			blocker: true,
			steps:   []step{{ready: never, wantErr: ErrTimeout}},
		},
		{
			// The first step's 2 ms ready against a 500 ms bound leaves a
			// margin no scheduling delay reaches; the second step still
			// waits out the shared deadline.
			name: "nil Reporter and nil blocker (bare Env literal)", timeout: 500 * time.Millisecond,
			steps: []step{{ready: 2 * time.Millisecond}, {ready: never, wantErr: ErrTimeout}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			env := &Env{LockTimeout: tc.timeout}
			rep := &recordingReporter{}
			if tc.reporter {
				env.Reporter = rep
			}
			waiter := NewTxn(1, "waiter", 0, 1)
			var blocker *Txn
			if tc.blocker {
				blocker = NewTxn(2, "blocker", 0, 2)
			}
			var deadline, first time.Time
			begin := time.Now()
			for i, s := range tc.steps {
				err := env.Wait(waiter, blocker, &deadline, signal(s.ready))
				if !errors.Is(err, s.wantErr) {
					t.Fatalf("step %d: err=%v want %v", i, err, s.wantErr)
				}
				if i == 0 {
					first = deadline
				} else if !deadline.Equal(first) {
					t.Fatalf("step %d moved the shared deadline: %v -> %v", i, first, deadline)
				}
			}
			total := time.Since(begin)
			if tc.clockUnstarted != deadline.IsZero() {
				t.Fatalf("deadline zero=%v, want %v", deadline.IsZero(), tc.clockUnstarted)
			}
			if tc.maxTotal > 0 && total > tc.maxTotal {
				t.Fatalf("waits took %v together, want <= %v", total, tc.maxTotal)
			}
			if len(rep.events) != tc.wantEvents {
				t.Fatalf("events=%d want %d: %+v", len(rep.events), tc.wantEvents, rep.events)
			}
			for _, ev := range rep.events {
				if ev.BlockedID != waiter.ID || ev.BlockedType != "waiter" ||
					ev.BlockerID != blocker.ID || ev.BlockerType != "blocker" || !ev.End.After(ev.Start) {
					t.Fatalf("event does not name waiter and blocker: %+v", ev)
				}
			}
		})
	}
}

// TestOneTimerSite keeps the consolidation from rotting: in the non-test
// sources of the transaction path, only Env.Wait may arm a timer. A new
// blocking wait calls Env.Wait; it does not grow its own deadline loop.
func TestOneTimerSite(t *testing.T) {
	var sites []string
	for _, root := range []string{".", "../cc", "../lockmgr", "../engine"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				// The anomaly package is a schedule driver for tests, not
				// the transaction path.
				if d.Name() == "anomaly" || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(src), "\n") {
				if strings.Contains(line, "time.NewTimer(") || strings.Contains(line, "time.After(") {
					sites = append(sites, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(path), i+1, strings.TrimSpace(line)))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(sites) != 1 || !strings.HasPrefix(sites[0], "wait.go:") {
		t.Fatalf("want exactly one timer site, in wait.go (Env.Wait); got %d:\n%s", len(sites), strings.Join(sites, "\n"))
	}
}

// TestWakeRecordsHandoff: a Fire records the handoff on the firing
// transaction only when a waiter made the channel, and the next waiter gets
// a fresh one.
func TestWakeRecordsHandoff(t *testing.T) {
	var w Wake
	by := NewTxn(1, "t", 0, 1)
	w.Fire(by)
	if by.Handoff() {
		t.Fatal("a Fire nobody waited for recorded a handoff")
	}
	ch := w.Chan()
	w.Fire(by)
	select {
	case <-ch:
	default:
		t.Fatal("Fire did not close the waiter's channel")
	}
	if !by.Handoff() {
		t.Fatal("a Fire that woke a waiter recorded no handoff")
	}
	select {
	case <-w.Chan():
		t.Fatal("the next waiter got the closed channel")
	default:
	}

	// A transaction's end fires its done Wake: a handoff only if someone
	// called Done first.
	alone, waited := NewTxn(2, "t", 0, 1), NewTxn(3, "t", 0, 1)
	done := waited.Done()
	alone.MarkCommitted(4)
	waited.MarkAborted()
	<-done
	if alone.Handoff() || !waited.Handoff() {
		t.Fatalf("handoff after commit with no waiter %v, after abort with one %v; want false, true", alone.Handoff(), waited.Handoff())
	}
}
