package wal

import (
	"errors"
	"sync/atomic"
)

// ErrInjected is the fsync failure a FlakyDevice injects.
var ErrInjected = errors.New("injected fsync failure")

// FlakyDevice wraps a Manager's log device for fault-injection tests (in this
// package and, through this file, in the engine-level ones of package
// wal_test): once armed, the next Sync fails without reaching the disk.
type FlakyDevice struct {
	logDevice
	failNext atomic.Bool
	syncs    atomic.Int64
}

// InstallFlakyDevice swaps m's log device for a FlakyDevice. Call it before
// the first request reaches the appender: the swap is ordered before the
// appender's reads only by that request's channel send.
func InstallFlakyDevice(m *Manager) *FlakyDevice {
	d := &FlakyDevice{logDevice: m.app.dev}
	m.app.dev = d
	return d
}

// FailNextSync arms the one-shot failure.
func (d *FlakyDevice) FailNextSync() { d.failNext.Store(true) }

// Syncs counts the fsyncs that reached the disk.
func (d *FlakyDevice) Syncs() int64 { return d.syncs.Load() }

func (d *FlakyDevice) Sync() error {
	if d.failNext.CompareAndSwap(true, false) {
		return ErrInjected
	}
	d.syncs.Add(1)
	return d.logDevice.Sync()
}
