package wal

import (
	"errors"
	"sync/atomic"
)

// ErrInjected is the error fault tests return from the crash hook in place
// of a durability call.
var ErrInjected = errors.New("injected fault")

// SetCrashHook installs h as m's crash hook, on the Manager and on its
// store, for the fault tests of package wal_test, which open the log through
// the engine. Call it before the first request reaches the appender: the
// write is ordered before the appender's reads only by that request's
// channel send.
func SetCrashHook(m *Manager, h func(point string) error) {
	m.opts.CrashHook = h
	m.st.SetCrashHook(h)
}

// SyncFault is a crash hook that, once armed, fails the next fsync of the
// log: the store's "sync" point returns ErrInjected instead of fsyncing.
type SyncFault struct {
	armed atomic.Bool
	syncs atomic.Int64
}

// Arm makes the next "sync" point fail.
func (f *SyncFault) Arm() { f.armed.Store(true) }

// Syncs counts the "sync" points the hook let through to the fsync.
func (f *SyncFault) Syncs() int64 { return f.syncs.Load() }

// Hook is the crash hook.
func (f *SyncFault) Hook(point string) error {
	if point != "sync" {
		return nil
	}
	if f.armed.CompareAndSwap(true, false) {
		return ErrInjected
	}
	f.syncs.Add(1)
	return nil
}
