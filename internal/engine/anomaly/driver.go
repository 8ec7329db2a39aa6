// Package anomaly is an executable catalogue of the classic transaction
// anomalies, each expressed as a named interleaving pattern with an oracle
// for the outcomes a serializable mechanism may produce. The suite runs
// every pattern against every leaf CC mechanism and a matrix of nested CC
// trees (see trees.go), asserting that forbidden outcomes are impossible
// and that allowed outcomes stay reachable. The per-anomaly pattern-file
// layout follows the per-anomaly test structure of go-test-pgssi.
//
// The package is a deterministic schedule driver: a failing interleaving
// must fail identically on every run. Two tests hold this: TestReplay runs
// every pattern twice and requires the same outcomes, and a source scan in
// internal/analysis/tebaldivet forbids wall-clock reads and the global
// math/rand source here.
package anomaly

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// table is the single logical table all patterns operate on. Predicate
// (phantom) patterns are expressed as scans over a fixed keyset, since the
// store is point-access.
const table = "t"

// OpKind enumerates the schedule step kinds.
type OpKind int

// The step kinds a transaction program is built from.
const (
	OpRead OpKind = iota
	OpWrite
	OpCommit
	OpAbort
)

// Op is one step of a transaction program. Write values are functions of
// the values the transaction has read so far, which keeps programs
// deterministic and lets the oracle re-execute them serially.
type Op struct {
	Kind OpKind
	Key  string
	// Val computes the written value from the reads observed so far.
	Val func(reads []string) string
}

// R reads key k.
func R(k string) Op { return Op{Kind: OpRead, Key: k} }

// W writes the constant v to key k.
func W(k, v string) Op {
	return Op{Kind: OpWrite, Key: k, Val: func([]string) string { return v }}
}

// WF writes f(reads-so-far) to key k (read-modify-write steps).
func WF(k string, f func(reads []string) string) Op {
	return Op{Kind: OpWrite, Key: k, Val: f}
}

// C commits the transaction.
func C() Op { return Op{Kind: OpCommit} }

// A aborts the transaction (a user abort — the program intends to roll
// back, as in the dirty-read pattern).
func A() Op { return Op{Kind: OpAbort} }

// Txn is one named transaction program. Name doubles as the transaction
// TYPE registered with the engine, so trees can route the pattern's
// transactions into different subtrees.
type Txn struct {
	Name string
	Ops  []Op
}

// Pattern is one named anomaly: programs, the adversarial interleaving
// that produces the anomaly absent concurrency control, and a predicate
// recognising the anomalous outcome.
type Pattern struct {
	Name    string
	Initial map[string]string
	Txns    []Txn
	// Schedule is the adversarial interleaving: each entry names a
	// transaction and dispatches its next program step.
	Schedule []string
	// Anomalous reports whether an outcome exhibits the anomaly. The
	// suite asserts it never holds under a serializable tree, and that
	// it does hold under the no-isolation simulator (and, where the
	// anomaly is admitted by read committed, under the engine's
	// read-committed control tree).
	Anomalous func(o *Outcome) bool
	// ReadCommitted reports that plain read-committed visibility admits
	// the anomaly, so the suite asserts it reachable on the engine's
	// control tree (None group under an optimized SSI root).
	ReadCommitted bool
	// MultiVersionOnly reports that the anomaly is a disagreement between
	// two orders of one key's versions, which a single-version store cannot
	// have: the no-isolation simulator is not expected to exhibit it.
	MultiVersionOnly bool
}

// SerialSchedule returns the non-interleaved schedule: every transaction
// runs start-to-finish in program order.
func (p *Pattern) SerialSchedule() []string {
	var s []string
	for _, t := range p.Txns {
		for range t.Ops {
			s = append(s, t.Name)
		}
	}
	return s
}

// Keys returns every key the pattern touches, sorted.
func (p *Pattern) Keys() []string {
	set := map[string]bool{}
	for k := range p.Initial {
		set[k] = true
	}
	for _, t := range p.Txns {
		for _, op := range t.Ops {
			if op.Key != "" {
				set[op.Key] = true
			}
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (p *Pattern) txn(name string) *Txn {
	for i := range p.Txns {
		if p.Txns[i].Name == name {
			return &p.Txns[i]
		}
	}
	return nil
}

// Outcome is what one execution of a pattern produced: which transactions
// committed, what each read observed (successful reads only, in program
// order), the first error per transaction, and the final committed state.
type Outcome struct {
	Committed map[string]bool
	Reads     map[string][]string
	Errs      map[string]error
	Final     map[string]string
}

// ReadsOf returns t's observed reads ("" when it read nothing).
func (o *Outcome) ReadsOf(t string) []string { return o.Reads[t] }

// stepGrace is how long the driver waits for a dispatched step before
// assuming the mechanism blocked it and moving to the next schedule entry.
// Steps never sleep, so anything slower than this is a real CC block.
const stepGrace = 25 * time.Millisecond

// runner drives one transaction program on its own goroutine (Tx methods
// are single-goroutine by contract). Steps arrive over a queue so the
// driver can keep scheduling other transactions while this one is blocked
// inside a CC wait.
type runner struct {
	name string
	part uint64
	ops  []Op

	queue chan int        // op indices, dispatched in program order
	acks  []chan struct{} // closed when the corresponding op finishes
	done  chan struct{}

	mu    sync.Mutex
	reads []string
	err   error
	state string // "", "committed", "aborted"
}

func (r *runner) run(e *engine.Engine) {
	defer close(r.done)
	var tx *engine.Tx
	for idx := range r.queue {
		op := r.ops[idx]
		r.mu.Lock()
		failed := r.err != nil
		r.mu.Unlock()
		if failed {
			// The transaction already auto-aborted on an earlier
			// error; drain the remaining steps.
			close(r.acks[idx])
			continue
		}
		if tx == nil {
			t, err := e.Begin(r.name, r.part)
			if err != nil {
				r.fail(err)
				close(r.acks[idx])
				continue
			}
			tx = t
		}
		switch op.Kind {
		case OpRead:
			v, err := tx.Read(core.Key{Table: table, Row: op.Key})
			if err != nil {
				r.fail(err)
			} else {
				r.mu.Lock()
				r.reads = append(r.reads, string(v))
				r.mu.Unlock()
			}
		case OpWrite:
			r.mu.Lock()
			val := op.Val(append([]string(nil), r.reads...))
			r.mu.Unlock()
			if err := tx.Write(core.Key{Table: table, Row: op.Key}, []byte(val)); err != nil {
				r.fail(err)
			}
		case OpCommit:
			if err := tx.Commit(); err != nil {
				r.fail(err)
			} else {
				r.mu.Lock()
				r.state = "committed"
				r.mu.Unlock()
			}
		case OpAbort:
			tx.Rollback(nil)
			r.mu.Lock()
			r.state = "aborted"
			r.mu.Unlock()
		}
		close(r.acks[idx])
	}
	if tx != nil {
		r.mu.Lock()
		unfinished := r.state == "" && r.err == nil
		r.mu.Unlock()
		if unfinished {
			tx.Rollback(nil)
		}
	}
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.state = "aborted"
	r.mu.Unlock()
}

// Run executes the pattern's transactions under the given CC tree following
// schedule. With strict false, blocked steps do not stall the driver: after
// stepGrace the next schedule entry runs, and the blocked step completes
// (or times out inside the engine) whenever the mechanism lets it. With
// strict true, the driver waits for every step — only valid for schedules
// that cannot block (serial runs, the read-committed control), where it
// makes the outcome deterministic regardless of machine load. Run returns
// once every transaction has finished.
func Run(p *Pattern, cfg *engine.NodeSpec, schedule []string, strict bool) (*Outcome, error) {
	var specs []*core.Spec
	for _, t := range p.Txns {
		specs = append(specs, &core.Spec{
			Name:        t.Name,
			Tables:      []string{table},
			WriteTables: []string{table},
		})
	}
	e, err := engine.New(engine.Options{
		Shards:      4,
		LockTimeout: 250 * time.Millisecond,
		GCInterval:  -1, // deterministic runs: no background GC
		BatchAge:    time.Nanosecond,
	}, specs, cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	for k, v := range p.Initial {
		e.Load(core.Key{Table: table, Row: k}, []byte(v))
	}

	runners := map[string]*runner{}
	for i, t := range p.Txns {
		r := &runner{
			name:  t.Name,
			part:  uint64(i),
			ops:   t.Ops,
			queue: make(chan int, len(t.Ops)),
			done:  make(chan struct{}),
		}
		for range t.Ops {
			r.acks = append(r.acks, make(chan struct{}))
		}
		runners[t.Name] = r
		go r.run(e)
	}

	next := map[string]int{}
	for _, name := range schedule {
		r := runners[name]
		if r == nil {
			return nil, fmt.Errorf("schedule names unknown txn %q", name)
		}
		idx := next[name]
		if idx >= len(r.ops) {
			return nil, fmt.Errorf("schedule overruns txn %q", name)
		}
		next[name] = idx + 1
		r.queue <- idx
		wait := stepGrace
		if strict {
			wait = 10 * time.Second
		}
		select {
		case <-r.acks[idx]:
		case <-time.After(wait):
			if strict {
				return nil, fmt.Errorf("strict schedule: txn %q blocked at step %d", name, idx)
			}
			// Blocked inside the mechanism; later steps (or the
			// engine's lock timeout) will release it.
		}
	}
	for _, t := range p.Txns {
		if next[t.Name] != len(t.Ops) {
			return nil, fmt.Errorf("schedule leaves txn %q at step %d/%d", t.Name, next[t.Name], len(t.Ops))
		}
	}

	// Iterate the pattern's declared txn order, not the runner map: a
	// deadline hit must name the same stuck transaction on every run.
	deadline := time.After(10 * time.Second)
	for _, t := range p.Txns {
		r := runners[t.Name]
		close(r.queue)
		select {
		case <-r.done:
		case <-deadline:
			return nil, fmt.Errorf("txn %q did not finish (driver deadline)", r.name)
		}
	}

	o := &Outcome{
		Committed: map[string]bool{},
		Reads:     map[string][]string{},
		Errs:      map[string]error{},
		Final:     map[string]string{},
	}
	for name, r := range runners {
		r.mu.Lock()
		o.Committed[name] = r.state == "committed"
		o.Reads[name] = append([]string(nil), r.reads...)
		o.Errs[name] = r.err
		r.mu.Unlock()
	}
	for _, k := range p.Keys() {
		o.Final[k] = string(e.ReadCommitted(core.Key{Table: table, Row: k}))
	}
	return o, nil
}
