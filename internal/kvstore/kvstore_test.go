package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func tempStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// record is one (key, value) pair as Scan visits it.
type record struct{ key, value string }

// scanAll returns every record of s in file order.
func scanAll(t testing.TB, s *Store) []record {
	t.Helper()
	var out []record
	if err := s.Scan(func(k string, v []byte) error {
		out = append(out, record{k, string(v)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// reopen opens the store at path again and returns its records.
func reopen(t testing.TB, path string) (*Store, []record) {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, scanAll(t, s)
}

func wantRecords(t testing.TB, got []record, want ...record) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("records %v, want %v", got, want)
	}
}

// TestSetKeepsEveryRecord: a key set twice is two records, both visited, in
// the order they were set; there is no latest-wins index.
func TestSetKeepsEveryRecord(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	for _, v := range []string{"1", "2", ""} {
		if err := s.Set("a", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	wantRecords(t, scanAll(t, s), record{"a", "1"}, record{"a", "2"}, record{"a", ""})
}

func TestPersistenceAcrossReopen(t *testing.T) {
	s, path := tempStore(t)
	s.Set("x", []byte("abc"))
	s.Set("y", []byte("def"))
	s.Set("x", []byte("xyz"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got := reopen(t, path)
	defer s2.Close()
	wantRecords(t, got, record{"x", "abc"}, record{"y", "def"}, record{"x", "xyz"})
}

func TestTornTailTruncated(t *testing.T) {
	s, path := tempStore(t)
	s.Set("good", []byte("value"))
	s.Close()
	// Append garbage simulating a torn write.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 200}) // header promises more than present
	f.Close()
	s2, got := reopen(t, path)
	defer s2.Close()
	wantRecords(t, got, record{"good", "value"})
	// The store must still accept writes after truncation.
	if err := s2.Set("more", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestScanInFileOrder: Scan visits written and buffered records alike, in
// the order they were set, and stops at its callback's first error.
func TestScanInFileOrder(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	mustSet(t, s, "b", "1")
	s.Set("a", []byte("2")) // still buffered
	wantRecords(t, scanAll(t, s), record{"b", "1"}, record{"a", "2"})
	stop := errors.New("stop")
	n := 0
	if err := s.Scan(func(string, []byte) error { n++; return stop }); err != stop || n != 1 {
		t.Fatalf("Scan returned %v after %d records, want the callback's error after 1", err, n)
	}
}

// TestRewriteCompacts: Rewrite writes the prefix records first, then exactly
// the records keep accepts, in their order, and the compacted log takes new
// records after them.
func TestRewriteCompacts(t *testing.T) {
	s, path := tempStore(t)
	want := []record{{"cut", "100"}, {"snap", "hot=99"}}
	for i := 0; i < 100; i++ {
		v := fmt.Sprintf("version-with-some-length-%02d", i)
		s.Set("hot", []byte(v))
		if i%10 == 0 {
			want = append(want, record{"hot", v})
		}
		if i == 50 {
			s.Set("keep", []byte("kept"))
			s.Set("drop", []byte("dropped"))
			want = append(want, record{"keep", "kept"})
		}
	}
	before, after, err := s.Rewrite(records(want[:2]...), func(key string, value []byte) bool {
		switch key {
		case "drop":
			return false
		case "hot":
			return strings.HasSuffix(string(value), "0")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("rewrite did not shrink the log: before=%d after=%d", before, after)
	}
	if n, _ := s.Size(); n != after {
		t.Fatalf("Size %d after a rewrite to %d bytes", n, after)
	}
	wantRecords(t, scanAll(t, s), want...)
	// The rewritten log must still accept and persist writes.
	if err := s.Set("post", []byte("after-rewrite")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got := reopen(t, path)
	defer s2.Close()
	wantRecords(t, got, append(want, record{"post", "after-rewrite"})...)
}

// records is a Rewrite prefix of the given records.
func records(recs ...record) func(func(string, []byte) error) error {
	return func(add func(string, []byte) error) error {
		for _, r := range recs {
			if err := add(r.key, []byte(r.value)); err != nil {
				return err
			}
		}
		return nil
	}
}

func keepAll(string, []byte) bool { return true }

// TestRewritePrefixDoesNotBlockAppends: the prefix is written before the
// store mutex is taken, so a Set issued while it is being written completes
// at once and lands in the new log after the prefix. A second Rewrite
// overlapping the first fails instead of writing into its temp file.
func TestRewritePrefixDoesNotBlockAppends(t *testing.T) {
	s, path := tempStore(t)
	mustSet(t, s, "old", "1")
	prefix := func(add func(string, []byte) error) error {
		if err := add("p", []byte("first")); err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() { done <- s.Set("during", []byte("2")) }()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(5 * time.Second):
			t.Error("a Set blocked while the prefix was written")
		}
		if _, _, err := s.Rewrite(nil, keepAll); err == nil {
			t.Error("an overlapping Rewrite succeeded")
		}
		return add("p", []byte("second"))
	}
	if _, _, err := s.Rewrite(prefix, keepAll); err != nil {
		t.Fatal(err)
	}
	want := []record{{"p", "first"}, {"p", "second"}, {"old", "1"}, {"during", "2"}}
	wantRecords(t, scanAll(t, s), want...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got := reopen(t, path)
	defer s2.Close()
	wantRecords(t, got, want...)
}

// sealedLog writes the log of the sealed-prefix tests: a rewrite sealed five
// records, then one more was synced after it. It returns the log's bytes
// and the offsets of the first record and of the unsealed one.
func sealedLog(t *testing.T, path string) (b []byte, first, unsealed int64) {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustSet(t, s, "gone", "covered")
	var recs []record
	for i := 0; i < 5; i++ {
		recs = append(recs, record{fmt.Sprintf("k%d", i), "sealed"})
	}
	if _, unsealed, err = s.Rewrite(records(recs...), func(string, []byte) bool { return false }); err != nil {
		t.Fatal(err)
	}
	mustSet(t, s, "k5", "after the seal")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return b, headerLen, unsealed
}

// TestSealedPrefixDamageRefused: below the seal a record cannot be torn, so a
// flipped byte, a zeroed record or a truncation there fails Open, naming the
// file and the offset, and leaves the file byte for byte as it was: read as
// a torn tail, it would truncate the log there and lose every record after
// it.
func TestSealedPrefixDamageRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		harm func(b []byte, first, unsealed int64) ([]byte, int64)
	}{
		{"flipped byte", func(b []byte, first, _ int64) ([]byte, int64) {
			b[first+recHeader] ^= 0x01
			return b, first
		}},
		{"zeroed record", func(b []byte, first, _ int64) ([]byte, int64) {
			second := first + int64(recHeader+len("k0sealed"))
			clear(b[second : second+second-first])
			return b, second
		}},
		{"truncated", func(b []byte, _, unsealed int64) ([]byte, int64) {
			return b[:unsealed-3], unsealed - int64(recHeader+len("k4sealed"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.log")
			b, first, unsealed := sealedLog(t, path)
			damaged, off := tc.harm(b, first, unsealed)
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path)
			if err == nil {
				recs := scanAll(t, s)
				s.Close()
				t.Fatalf("opened a log damaged below its seal, with records %v", recs)
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", off)) {
				t.Fatalf("error does not name %s and offset %d: %v", path, off, err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, damaged) {
				t.Fatalf("refused log changed: %d bytes, was %d", len(got), len(damaged))
			}
		})
	}
}

// TestTornTailAboveSealTruncated: past the seal a bad record is a torn tail,
// truncated as before; every sealed record and every synced record before
// the torn one survives.
func TestTornTailAboveSealTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	b, _, _ := sealedLog(t, path)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustSet(t, s, "k6", "torn")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, got := reopen(t, path)
	defer s2.Close()
	want := []record{{"k0", "sealed"}, {"k1", "sealed"}, {"k2", "sealed"}, {"k3", "sealed"}, {"k4", "sealed"}, {"k5", "after the seal"}}
	wantRecords(t, got, want...)
	if n, _ := s2.Size(); n != int64(len(b)) {
		t.Fatalf("log resumes at %d, want %d", n, len(b))
	}
}

// TestVersion2Refused: a log of version 2 (the 8-byte header without a seal)
// is refused by name and left byte for byte as it was.
func TestVersion2Refused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.log")
	v2 := binary.LittleEndian.AppendUint32([]byte(magic), 2)
	v2 = appendRecord(v2, "t", []byte("a transaction"))
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("opened a log of version 2")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("refusal does not name the file and the version: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, v2) {
		t.Fatalf("refused log changed: %d bytes, was %d", len(got), len(v2))
	}
}

func TestRewriteLeftoverTempIgnoredOnOpen(t *testing.T) {
	s, path := tempStore(t)
	s.Set("a", []byte("1"))
	s.Close()
	// Simulate a crash mid-compaction: a temp file exists but the rename
	// never happened. The original log must stay authoritative.
	if err := os.WriteFile(path+compactSuffix, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, got := reopen(t, path)
	defer s2.Close()
	wantRecords(t, got, record{"a", "1"})
	if _, err := os.Stat(path + compactSuffix); !os.IsNotExist(err) {
		t.Fatal("leftover compaction temp file not removed")
	}
}

func TestRewriteCrashHookPoints(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	s.Set("k", []byte("v"))
	var points []string
	s.SetCrashHook(func(p string) error {
		points = append(points, p)
		return nil
	})
	if _, _, err := s.Rewrite(nil, keepAll); err != nil {
		t.Fatal(err)
	}
	want := []string{"write", "compact.flush", "compact.written", "compact.synced", "compact.renamed"}
	if len(points) != len(want) {
		t.Fatalf("points %v", points)
	}
	for i := range want {
		if points[i] != want[i] {
			t.Fatalf("points %v", points)
		}
	}
}

// TestRewritePrefixErrorLeavesLog: an error from the prefix fails the
// rewrite before the log is touched; the temp file is removed and the store
// goes on appending to the old log.
func TestRewritePrefixErrorLeavesLog(t *testing.T) {
	s, path := tempStore(t)
	mustSet(t, s, "old", "1")
	boom := errors.New("boom")
	prefix := func(add func(string, []byte) error) error {
		if err := add("p", []byte("first")); err != nil {
			return err
		}
		return boom
	}
	if _, _, err := s.Rewrite(prefix, keepAll); !errors.Is(err, boom) {
		t.Fatalf("Rewrite returned %v, want the prefix's error", err)
	}
	if _, err := os.Stat(path + compactSuffix); !os.IsNotExist(err) {
		t.Fatal("a failed rewrite left its temp file")
	}
	mustSet(t, s, "new", "2")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got := reopen(t, path)
	defer s2.Close()
	wantRecords(t, got, record{"old", "1"}, record{"new", "2"})
}

// TestSyncAcrossRewrites: Sync fsyncs outside the store mutex, and a Rewrite
// may swap the file meanwhile; the swap waits for the fsync before it closes
// the old file, so no Sync fails and every record survives the rewrites.
func TestSyncAcrossRewrites(t *testing.T) {
	s, path := tempStore(t)
	const n = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := s.Set(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
				done <- err
				return
			}
			if err := s.Sync(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
			if _, _, err := s.Rewrite(nil, keepAll); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got := reopen(t, path)
	defer s2.Close()
	if len(got) != n {
		t.Fatalf("%d records after the rewrites, want %d", len(got), n)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// crash drops the store the way a process kill would: no final write, no
// truncation of the zeroed tail.
func crash(s *Store) {
	s.mu.Lock()
	s.f.Close()
	s.f = nil
	s.mu.Unlock()
}

func mustSet(t *testing.T, s *Store, key, value string) {
	t.Helper()
	if err := s.Set(key, []byte(value)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// overwrite writes b at off of the file at path, behind the store's back.
func overwrite(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestTornRecordInZeroedTailDropped: a record whose header made it to disk but
// whose body is partly still the zeroed tail passes every length check; only
// its checksum tells it is torn. It is dropped, and the next Set takes its
// place.
func TestTornRecordInZeroedTailDropped(t *testing.T) {
	s, path := tempStore(t)
	mustSet(t, s, "a", "first")
	start, _ := s.Size()
	mustSet(t, s, "b", "a value long enough to be torn halfway through")
	end, _ := s.Size()
	crash(s)
	if fileSize(t, path) <= end {
		t.Fatalf("no zeroed tail after Sync: file %d bytes, log %d", fileSize(t, path), end)
	}
	overwrite(t, path, end-20, make([]byte, 20))

	s2, got := reopen(t, path)
	wantRecords(t, got, record{"a", "first"})
	if n, _ := s2.Size(); n != start {
		t.Fatalf("log resumes at %d, want %d (the torn record's offset)", n, start)
	}
	mustSet(t, s2, "c", "third")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := fileSize(t, path), start+recHeader+int64(len("c")+len("third")); got != want {
		t.Fatalf("file %d bytes after the next Set, want %d: it did not write over the torn record", got, want)
	}
	s3, got := reopen(t, path)
	defer s3.Close()
	wantRecords(t, got, record{"a", "first"}, record{"c", "third"})
}

// TestFlippedByteEndsLog: one flipped bit in a record's value ends the log
// at that record; the records before it are intact.
func TestFlippedByteEndsLog(t *testing.T) {
	s, path := tempStore(t)
	mustSet(t, s, "a", "one")
	mid, _ := s.Size()
	mustSet(t, s, "b", "two")
	mustSet(t, s, "c", "three")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := mid + recHeader + 1 // the first byte of b's value
	overwrite(t, path, off, []byte{b[off] ^ 0x01})

	s2, got := reopen(t, path)
	defer s2.Close()
	wantRecords(t, got, record{"a", "one"})
	if n, _ := s2.Size(); n != mid {
		t.Fatalf("log resumes at %d, want %d", n, mid)
	}
}

// TestOldFormatRefused: a log of the headerless format (8-byte record
// headers, no checksum) is refused by name and left exactly as it was.
func TestOldFormatRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.log")
	var old []byte
	for _, kv := range [][2]string{{"e", "12345678"}, {"b/0", "batch"}} {
		old = binary.LittleEndian.AppendUint32(old, uint32(len(kv[0])))
		old = binary.LittleEndian.AppendUint32(old, uint32(len(kv[1])))
		old = append(append(old, kv[0]...), kv[1]...)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("opened a log of the earlier format")
	}
	if !strings.Contains(err.Error(), "earlier format") {
		t.Fatalf("refusal does not name the format: %v", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("refused log changed: %d bytes, was %d", len(got), len(old))
	}
}

// TestCloseTruncatesToLogicalEnd: the zeroed tail does not outlive Close.
func TestCloseTruncatesToLogicalEnd(t *testing.T) {
	s, path := tempStore(t)
	for i := 0; i < 10; i++ {
		mustSet(t, s, fmt.Sprintf("k%d", i), "value")
	}
	n, err := s.Size()
	if err != nil {
		t.Fatal(err)
	}
	if fileSize(t, path) == n {
		t.Fatal("no zeroed tail while open")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != n {
		t.Fatalf("file %d bytes after Close, Size() said %d", got, n)
	}
}

// TestEmptyKeyRejected: an empty key with an empty value would encode as a
// zero-length pair, which replay reads as the end of the log — every record
// after it would be lost.
func TestEmptyKeyRejected(t *testing.T) {
	s, path := tempStore(t)
	if err := s.Set("", nil); err == nil {
		t.Fatal("Set accepted an empty key")
	}
	mustSet(t, s, "after", "kept")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got := reopen(t, path)
	defer s2.Close()
	wantRecords(t, got, record{"after", "kept"})
}

// TestSteadySyncKeepsFileSize is the count behind the sync-commit speed-up: a
// Sync that overwrites zeroed space does not change the file's size (so the
// fsync needs no journal commit). After the first growth, 1,000 rounds of a
// 1.5 KB Set+Sync may change it at most once per growth step written.
func TestSteadySyncKeepsFileSize(t *testing.T) {
	s, path := tempStore(t)
	defer s.Close()
	val := make([]byte, 1536)
	mustSet(t, s, "k", string(val))
	start, _ := s.Size()
	size := fileSize(t, path)
	changes := 0
	for i := 0; i < 1000; i++ {
		mustSet(t, s, "k", string(val))
		if n := fileSize(t, path); n != size {
			changes++
			size = n
		}
	}
	end, _ := s.Size()
	if limit := int((end - start) / GrowthStep(0)); changes > limit {
		t.Fatalf("file size changed %d times in 1000 syncs, more than once per %d-byte growth step (%d)", changes, GrowthStep(0), limit)
	}
	if size > end+GrowthStep(end) {
		t.Fatalf("file %d bytes for a %d-byte log: more than one growth step ahead", size, end)
	}
}

// BenchmarkStoreSync is one 1.5 KB Set+Sync per iteration, the shape of a
// sync-commit group-commit batch. It reports the fsync cost and how often a
// Sync changed the file's size.
func BenchmarkStoreSync(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.log")
	s, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 1536)
	stat := func() int64 {
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		return st.Size()
	}
	size, changes := stat(), 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Set("k", val); err != nil {
			b.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := stat(); n != size {
			changes++
			size = n
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/sync")
	b.ReportMetric(float64(changes)/float64(b.N), "size-changes/sync")
}

// Property: any sequence of sets survives a close/reopen, record for record
// and in order.
func TestRoundTripProperty(t *testing.T) {
	type op struct {
		Key byte
		Val []byte
	}
	f := func(ops []op) bool {
		path := filepath.Join(t.TempDir(), "p.log")
		s, err := Open(path)
		if err != nil {
			return false
		}
		var want []record
		for _, o := range ops {
			k := string(rune('a' + o.Key%8))
			if err := s.Set(k, o.Val); err != nil {
				return false
			}
			want = append(want, record{k, string(o.Val)})
		}
		if s.Close() != nil {
			return false
		}
		s2, got := reopen(t, path)
		defer s2.Close()
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordLimit: Set refuses a key or value over its limit and buffers
// nothing of it, so the records after it are neither cut off by replay nor
// preceded by a record replay cannot read. A record exactly at the limits
// round-trips.
func TestRecordLimit(t *testing.T) {
	s, path := tempStore(t)
	mustSet(t, s, "before", "1")
	big := make([]byte, MaxValueLen+1)
	big[MaxValueLen-1] = 7
	for _, tc := range []struct {
		key   string
		value []byte
	}{{"v", big}, {strings.Repeat("k", MaxKeyLen+1), nil}} {
		if err := s.Set(tc.key, tc.value); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Fatalf("Set of a %d-byte key and a %d-byte value returned %v, want the limit", len(tc.key), len(tc.value), err)
		}
	}
	if n, _ := s.Size(); n != headerLen+recHeader+int64(len("before1")) {
		t.Fatalf("log is %d bytes after the refused Sets: something was buffered", n)
	}
	if err := s.Set(strings.Repeat("k", MaxKeyLen), big[:MaxValueLen]); err != nil {
		t.Fatalf("Set at the limits: %v", err)
	}
	mustSet(t, s, "after", "2")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var keys []string
	if err := s2.Scan(func(k string, v []byte) error {
		keys = append(keys, fmt.Sprintf("%d/%d", len(k), len(v)))
		if len(v) == MaxValueLen && v[MaxValueLen-1] != 7 {
			t.Error("the value at the limit read back changed")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint([]string{"6/1", fmt.Sprintf("%d/%d", MaxKeyLen, MaxValueLen), "5/1"}); fmt.Sprint(keys) != want {
		t.Fatalf("records (key/value bytes) %v, want %v", keys, want)
	}
}
