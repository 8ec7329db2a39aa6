// Package tebaldivet assembles the engine's invariant analyzers into the
// suite run by cmd/tebaldivet and CI. Each analyzer encodes an invariant
// this repo has already paid for dynamically and that no test or type holds
// on its own (see DESIGN.md, "Invariants as lint"):
//
//   - lockorder:  declared mutex partial order, no undeclared/cyclic nesting
//   - unlockpath: every Lock released on every return/panic path
//   - poolescape: every *core.Txn escape edge dominated by MarkShared; the
//     escape-point list in internal/core/txn.go is derived, not maintained.
//     It is interprocedural, built on internal/analysis/ssa and the
//     framework fact store.
//
// The invariants of retired analyzers are held by the tests in this
// package's suite_test.go and by the tests they name.
package tebaldivet

import (
	"repro/internal/analysis/framework"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/poolescape"
	"repro/internal/analysis/unlockpath"
)

// All returns the tebaldivet analyzers in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		lockorder.Analyzer,
		unlockpath.Analyzer,
		poolescape.Analyzer,
	}
}
