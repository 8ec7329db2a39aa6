package kvstore

import (
	"errors"
	"syscall"
	"testing"
)

// TestFailedGrowthFailsSync: a growth write the filesystem refuses (ENOSPC
// on a full disk; here EFBIG, from a file-size limit at the current end of
// the allocated file) fails the Sync before its fsync, so the caller's
// sticky-error path sees it; the records written into the zeroed space
// survive.
func TestFailedGrowthFailsSync(t *testing.T) {
	s, path := tempStore(t)
	mustSet(t, s, "a", "before the limit")
	limit := fileSize(t, path)

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skip(err)
	}
	lowered := old
	lowered.Cur = uint64(limit)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Skip(err)
	}
	// Less than half a step of zeros is left after these records: Sync has
	// to grow the file.
	if err := s.Set("b", make([]byte, 3*GrowthStep(0)/4)); err != nil {
		t.Fatal(err)
	}
	err := s.Sync()
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("Sync with a refused growth write returned %v, want EFBIG", err)
	}
	if got := fileSize(t, path); got != limit {
		t.Fatalf("file %d bytes, limit %d", got, limit)
	}
	// The retry grows the file; both records are there after a reopen.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got := reopen(t, path)
	defer s2.Close()
	wantRecords(t, got, record{"a", "before the limit"}, record{"b", string(make([]byte, 3*GrowthStep(0)/4))})
}
