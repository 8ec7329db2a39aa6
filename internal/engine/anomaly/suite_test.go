package anomaly

import (
	"fmt"
	"testing"
)

// TestPatternsEncodeAnomalies validates the patterns themselves: the
// adversarial schedule really produces the anomaly when nothing regulates
// it (single-version, no isolation; skipped for the patterns only a
// multiversion store can exhibit), and the serial execution does not.
func TestPatternsEncodeAnomalies(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if o := SimulateNoIsolation(p); !p.MultiVersionOnly && !p.Anomalous(o) {
				t.Errorf("no-isolation run does not exhibit the anomaly: %+v", o)
			}
			if o := SimulateSerial(p); p.Anomalous(o) {
				t.Errorf("serial run exhibits the anomaly: %+v", o)
			}
		})
	}
}

// TestForbiddenOutcomesImpossible runs every pattern's adversarial schedule
// against every serializable tree: the anomaly must not appear, and the
// committed transactions must be view-equivalent to some serial order.
func TestForbiddenOutcomesImpossible(t *testing.T) {
	for _, p := range All() {
		for _, tr := range SerializableTrees() {
			p, tr := p, tr
			t.Run(fmt.Sprintf("%s/%s", p.Name, tr.Name), func(t *testing.T) {
				t.Parallel()
				o, err := Run(p, tr.Build(typeNames(p)), p.Schedule, false)
				if err != nil {
					t.Fatal(err)
				}
				if p.Anomalous(o) {
					t.Fatalf("anomaly reached on %s: %+v (errs %v)", tr.Name, o, o.Errs)
				}
				order, err := CheckSerializable(p, o)
				if err != nil {
					t.Fatalf("outcome not serializable on %s: %v\noutcome: %+v (errs %v)",
						tr.Name, err, o, o.Errs)
				}
				t.Logf("serialized as %s", orDash(order))
			})
		}
	}
}

// TestAllowedOutcomesReachable runs every pattern's serial schedule against
// every serializable tree: with no interleaving there is nothing to
// regulate, so every transaction must complete exactly as the serial
// simulation predicts (no mechanism may forbid the allowed outcome).
func TestAllowedOutcomesReachable(t *testing.T) {
	for _, p := range All() {
		for _, tr := range SerializableTrees() {
			p, tr := p, tr
			t.Run(fmt.Sprintf("%s/%s", p.Name, tr.Name), func(t *testing.T) {
				t.Parallel()
				o, err := Run(p, tr.Build(typeNames(p)), p.SerialSchedule(), true)
				if err != nil {
					t.Fatal(err)
				}
				want := SimulateSerial(p)
				if diff := diffOutcome(p, want, o); diff != "" {
					t.Fatalf("serial schedule diverged on %s: %s (errs %v)", tr.Name, diff, o.Errs)
				}
			})
		}
	}
}

// TestAnomaliesReachableUnderReadCommitted is the executable negative
// control: on the None-under-SSI control tree (plain read-committed
// visibility, no conflict regulation) the read-committed-admitted
// anomalies must actually happen under the adversarial schedule — proving
// the suite's schedules drive the engine into the danger zone and it is
// the serializable mechanisms, not the driver, preventing the anomalies.
func TestAnomaliesReachableUnderReadCommitted(t *testing.T) {
	for _, p := range All() {
		p := p
		if !p.ReadCommitted {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			o, err := Run(p, ReadCommittedTree(typeNames(p)), p.Schedule, true)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Anomalous(o) {
				t.Fatalf("anomaly not reached under read committed: %+v (errs %v)", o, o.Errs)
			}
		})
	}
}

// TestReplay holds the driver's replayability directly: the simulators and
// every strict-mode Run (the serial schedule on every serializable tree,
// the adversarial schedule on the read-committed control) produce the same
// outcome twice, errors compared as text. An outcome that depends on map
// iteration order, the wall clock or an unseeded source fails here. The
// non-strict runs are left out: their step grace lets machine load steer
// which transaction a mechanism blocks.
func TestReplay(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			same(t, "SimulateSerial", func() (*Outcome, error) { return SimulateSerial(p), nil })
			same(t, "SimulateNoIsolation", func() (*Outcome, error) { return SimulateNoIsolation(p), nil })
			for _, tr := range SerializableTrees() {
				same(t, "serial Run on "+tr.Name, func() (*Outcome, error) {
					return Run(p, tr.Build(typeNames(p)), p.SerialSchedule(), true)
				})
			}
			if p.ReadCommitted {
				same(t, "Run on the read-committed control", func() (*Outcome, error) {
					return Run(p, ReadCommittedTree(typeNames(p)), p.Schedule, true)
				})
			}
		})
	}
}

// same runs run twice and fails t unless both runs print the same; fmt
// prints maps in key order and errors as their text.
func same(t *testing.T, what string, run func() (*Outcome, error)) {
	t.Helper()
	var got [2]string
	for i := range got {
		o, err := run()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got[i] = fmt.Sprintf("%+v", *o)
	}
	if got[0] != got[1] {
		t.Fatalf("%s is not replayable:\nfirst:  %s\nsecond: %s", what, got[0], got[1])
	}
}

func typeNames(p *Pattern) []string {
	var names []string
	for _, tx := range p.Txns {
		names = append(names, tx.Name)
	}
	return names
}

func orDash(s string) string {
	if s == "" {
		return "(empty)"
	}
	return s
}

func diffOutcome(p *Pattern, want, got *Outcome) string {
	for _, tx := range p.Txns {
		if want.Committed[tx.Name] != got.Committed[tx.Name] {
			return fmt.Sprintf("txn %s committed=%v, want %v",
				tx.Name, got.Committed[tx.Name], want.Committed[tx.Name])
		}
		if !equalReads(want.Reads[tx.Name], got.Reads[tx.Name]) {
			return fmt.Sprintf("txn %s reads=%v, want %v",
				tx.Name, got.Reads[tx.Name], want.Reads[tx.Name])
		}
	}
	for _, k := range p.Keys() {
		if want.Final[k] != got.Final[k] {
			return fmt.Sprintf("final %s=%q, want %q", k, got.Final[k], want.Final[k])
		}
	}
	return ""
}
