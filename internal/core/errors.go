package core

import (
	"errors"
	"fmt"
	"time"
)

// ErrAborted is the root of every transaction-abort error. All abort reasons
// wrap it, so callers can test errors.Is(err, core.ErrAborted).
var ErrAborted = errors.New("transaction aborted")

// Abort reasons. Each wraps ErrAborted; all are retryable by re-running the
// transaction (Tebaldi's client layer retries automatically).
var (
	// ErrConflict is a generic CC-level conflict abort (e.g. SSI
	// first-updater-wins, TSO read-timestamp violation).
	ErrConflict = fmt.Errorf("%w: data conflict", ErrAborted)

	// ErrTimeout indicates a lock or dependency wait exceeded its deadline.
	// Tebaldi resolves deadlocks by timing transactions out (§4.4.1).
	ErrTimeout = fmt.Errorf("%w: wait timed out (possible deadlock)", ErrAborted)

	// ErrCascade indicates the transaction observed an uncommitted value
	// whose writer later aborted, so it must abort too (cascading abort).
	ErrCascade = fmt.Errorf("%w: cascading abort (read-from writer aborted)", ErrAborted)

	// ErrPivot indicates SSI detected a dangerous structure (pivot batch)
	// and chose this transaction as the victim.
	ErrPivot = fmt.Errorf("%w: SSI pivot (dangerous structure)", ErrAborted)

	// ErrUserAbort is returned when the application's transaction function
	// requested an abort; it is NOT retried.
	ErrUserAbort = errors.New("user abort")

	// ErrDurability is returned by Commit when the write-ahead log failed
	// (or was already poisoned or closed): the commit was not made durable
	// and is not acknowledged. It does not wrap ErrAborted — the log stays
	// failed until the database is recovered, so a retry cannot succeed.
	ErrDurability = errors.New("durability failure: write-ahead log failed")

	// ErrUnknownType is returned by Begin for a transaction type that no
	// node of the CC tree lists: run under the CCs its path happens to
	// cross, it would be regulated against no one. It is NOT retried.
	ErrUnknownType = errors.New("unknown transaction type")
)

// IsRetryable reports whether err is a system-initiated abort that the client
// layer should retry.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrAborted) && !errors.Is(err, ErrUserAbort)
}

// RetryBackoff is the one retry policy: how long a client sleeps after its
// attempt-th consecutive retryable abort (counted from 0) before running the
// transaction again — uniform in 50 µs … 50 µs + 200 µs × (attempt+1), the
// growing term capped at 5 ms (the paper's 5 ms SSI backoff, scaled by
// contention). intn is the caller's rand.Intn, so seeded drivers stay
// reproducible.
func RetryBackoff(attempt int, intn func(n int) int) time.Duration {
	max := 200 * (attempt + 1)
	if max > 5000 {
		max = 5000
	}
	return time.Duration(intn(max)+50) * time.Microsecond
}

// WaitFor is returned from CC.AmendRead when the chosen version is a promise
// whose value has not been written yet (TSO promises, §4.4.4). The engine
// releases the chain mutex, waits for V.Ready(), and retries the read.
type WaitFor struct{ V *Version }

// Error implements error.
func (w *WaitFor) Error() string { return "read must wait for a promised write" }
