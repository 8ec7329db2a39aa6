// Package unlockpath implements the tebaldivet analyzer that checks every
// mutex acquisition is released on all exit paths of its function.
//
// This is the exact shape of the PR 6 lockmgr fixes: an early return (or
// panic) threaded through a retry loop that skips the shard unlock leaves
// the table wedged until the lock timeout converts the bug into an
// inscrutable flake. The analyzer abstract-interprets each function body
// (see lockset.Walk), tracking the held set along every control path; any
// return, panic, or fall-off-the-end with a lock held and no deferred
// release pending is an error. It also flags re-acquiring a held lock
// (self-deadlock: sync mutexes are not reentrant).
//
// Functions that intentionally hand a held lock to their caller must be
// annotated `//lint:allow unlockpath -- <why>`.
package unlockpath

import (
	"go/token"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/lockset"
)

// Analyzer is the unlockpath check.
var Analyzer = &framework.Analyzer{
	Name: "unlockpath",
	Doc: "report Lock/RLock calls not released on every return/panic " +
		"path, and re-acquisitions that self-deadlock",
	Run: run,
}

// wrapperNames are lock-method wrappers (e.g. core.Chain.Lock): their
// bodies intentionally return holding the underlying mutex.
var wrapperNames = map[string]bool{
	"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true,
}

func run(pass *framework.Pass) error {
	type leak struct {
		exit token.Pos
		kind lockset.ExitKind
	}
	for _, file := range pass.Files {
		for _, fn := range lockset.FunctionsOf(file) {
			if fn.Decl != nil && wrapperNames[fn.Decl.Name.Name] {
				continue
			}
			// One report per acquire site, on the first leaking exit.
			leaks := map[*lockset.Call]leak{}
			doubles := map[token.Pos]bool{}
			lockset.Walk(pass.TypesInfo, fn.Body, lockset.Hooks{
				OnAcquire: func(c *lockset.Call, held []lockset.Held) {
					for _, h := range held {
						if h.Call.Key == c.Key && (!h.Call.Read || !c.Read) &&
							c.Op != lockset.TryAcquireOp {
							doubles[c.Expr.Pos()] = true
						}
					}
				},
				OnExit: func(pos token.Pos, kind lockset.ExitKind, held []lockset.Held) {
					for _, h := range held {
						if h.Deferred {
							continue
						}
						if _, seen := leaks[h.Call]; !seen {
							leaks[h.Call] = leak{exit: pos, kind: kind}
						}
					}
				},
			})
			for pos := range doubles {
				pass.Reportf(pos,
					"lock is already held on this path: re-acquiring self-deadlocks (sync mutexes are not reentrant)")
			}
			for c, l := range leaks {
				how := "a return"
				switch l.kind {
				case lockset.ExitPanic:
					how = "a panic"
				case lockset.ExitEnd:
					how = "the fall-through"
				}
				pass.Reportf(c.Expr.Pos(),
					"%s acquired here is not released on %s path at line %d: unlock on every path or defer",
					c.Key, how, pass.Fset.Position(l.exit).Line)
			}
		}
	}
	return nil
}
