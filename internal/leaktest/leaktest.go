// Package leaktest fails a package's tests when a goroutine they started
// from this module is still running after they finish: a worker loop whose
// stop signal nobody sends keeps the engine, the log or a session alive
// past Close. Every package with a non-test go statement calls Main from
// its TestMain; a scan in internal/analysis/tebaldivet enforces that.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and then waits up to five seconds for every goroutine
// with a frame of this module to exit. If any is left it prints their
// stacks and exits 1.
func Main(m *testing.M) {
	code := m.Run()
	deadline := time.Now().Add(5 * time.Second)
	left := running()
	for len(left) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		left = running()
	}
	if len(left) > 0 {
		fmt.Fprintf(os.Stderr, "leaktest: %d goroutine(s) still running after the tests:\n\n%s\n", len(left), strings.Join(left, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// running returns the stacks of the other goroutines that run or were
// started by a function of this module.
func running() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // [0] is this goroutine
		if strings.Contains(g, "\nrepro/") || strings.Contains(g, "created by repro/") {
			left = append(left, g)
		}
	}
	return left
}
