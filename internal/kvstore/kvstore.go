// Package kvstore is a minimal persistent key-value store used as Tebaldi's
// underlying durable storage. The paper outsources persistence to Redis or
// RocksDB through a plain key-value interface (§4.5.4); this package is the
// stdlib-only substitute: an append-only log file with an in-memory index.
// Tebaldi stores transaction logs — not materialized rows — in this store,
// exactly as described in the paper ("the underlying storage has all the
// data ... in the form of transaction logs").
//
// Format. The file starts with an 8-byte header, "TBKV" and a little-endian
// u32 version (2). Records follow it back to back:
//
//	u32 klen | u32 vlen | u32 crc32c(klen|vlen|key|value) | key | value
//
// The latest record for a key wins; an empty value deletes the key. Keys are
// never empty, so a record header with klen = vlen = 0 cannot be written: it
// is what the zeroed tail reads as.
//
// Zeroed tail. Records are written into zero-filled space allocated ahead of
// the logical end of the file, so that a steady-state Sync overwrites blocks
// the file already has and leaves its size alone: the fsync then flushes
// data, without a journal commit for the size change. Sync keeps at least
// half a growth step of zeros ahead of the end; when less is left, it writes
// the next step of zeros before the fsync. A step is as large as the log,
// from 64 KiB up to 4 MiB (GrowthStep). Close truncates the file to its
// logical end; Size and Rewrite report logical bytes.
//
// Replay stops at the first record that is short, reads as zeros or fails its
// checksum, and Open truncates the file there. Records are written in order,
// and an acknowledged record was covered by a completed fsync, so every
// acknowledged record precedes the first bad one.
//
// A non-empty file without the header is a log of the earlier format (8-byte
// record headers, no checksum). Open refuses it and leaves it as it is.
package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	magic     = "TBKV"
	version   = 2 // 1 is the headerless format of earlier versions
	headerLen = 8
	recHeader = 12

	minStep = 64 << 10
	maxStep = 4 << 20
	// flushAt bounds the records Set buffers before it writes them out.
	flushAt = 64 << 10
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	zeros      [256 << 10]byte

	errClosed   = errors.New("kvstore: closed")
	errEmptyKey = errors.New("kvstore: empty key (a zero-length record marks the end of the log)")
)

// GrowthStep is how much zeroed space Sync allocates ahead of a log whose
// logical size is n bytes: as much as the log itself, at least 64 KiB and at
// most 4 MiB.
func GrowthStep(n int64) int64 { return min(max(n, minStep), maxStep) }

// Store is an append-only persistent key-value store. Writes append records;
// the latest record for a key wins. Sync writes the buffered records and
// fsyncs. Rewrite compacts the log in place (Tebaldi's checkpoint truncation,
// §4.5.4): the file is atomically replaced by one holding only the records
// the caller keeps, so the log stays bounded across checkpoints.
type Store struct {
	mu   sync.Mutex
	f    *os.File // nil once closed
	path string
	// buf holds encoded records not yet written; they go to offset end.
	buf []byte
	// end is the logical end of the records written to the file; alloc is
	// the file's size. [end, alloc) is zeros.
	end, alloc int64
	// index maps key -> latest value.
	index map[string][]byte
	// crashHook, when set, is invoked at durability-critical boundaries
	// (compaction write/sync/rename). Crash-point tests snapshot the
	// on-disk state inside the hook to simulate a process kill there.
	crashHook func(point string)
}

// Open opens (creating if necessary) the store at path, replaying any
// existing records into the index.
func Open(path string) (*Store, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	// A leftover rewrite temp file means a crash hit mid-compaction before
	// the rename: the original log is still the authoritative one.
	os.Remove(path + compactSuffix)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	s := &Store{f: f, path: path, index: make(map[string][]byte)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load checks the file header, replays the records and truncates the file
// after the last valid one (a crash mid-append, or the zeroed tail).
func (s *Store) load() error {
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	var hdr [headerLen]byte
	if _, err := s.f.ReadAt(hdr[:], 0); err != nil && err != io.EOF {
		return fmt.Errorf("kvstore: %w", err)
	}
	valid := int64(headerLen)
	switch {
	case hdr == [headerLen]byte{}:
		// Empty, or a header no completed fsync covered — and with it no
		// acknowledged record: start afresh.
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("kvstore: truncate: %w", err)
		}
		hdr = header()
		if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("kvstore: %w", err)
		}
	case string(hdr[:4]) != magic:
		return fmt.Errorf("kvstore: %s has no %q header: it is a log of the earlier format (8-byte record headers, no checksum), which this version cannot read", s.path, magic)
	case binary.LittleEndian.Uint32(hdr[4:]) != version:
		return fmt.Errorf("kvstore: %s is format version %d, this version reads %d", s.path, binary.LittleEndian.Uint32(hdr[4:]), version)
	default:
		if valid, err = s.replay(st.Size()); err != nil {
			return fmt.Errorf("kvstore: replay: %w", err)
		}
		if err := s.f.Truncate(valid); err != nil {
			return fmt.Errorf("kvstore: truncate: %w", err)
		}
	}
	s.end, s.alloc = valid, valid
	return nil
}

func header() (h [headerLen]byte) {
	copy(h[:], magic)
	binary.LittleEndian.PutUint32(h[4:], version)
	return h
}

// replay loads every valid record of a file of the given size and returns
// the offset after the last one.
func (s *Store) replay(size int64) (int64, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, headerLen, size-headerLen), 1<<16)
	off := int64(headerLen)
	var hdr [recHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, endOfLog(err)
		}
		klen := binary.LittleEndian.Uint32(hdr[0:4])
		vlen := binary.LittleEndian.Uint32(hdr[4:8])
		if klen == 0 || klen > 1<<20 || vlen > 1<<26 {
			return off, nil // the zeroed tail, or a corrupt length
		}
		buf := make([]byte, int(klen)+int(vlen))
		if _, err := io.ReadFull(r, buf); err != nil {
			return off, endOfLog(err)
		}
		if crc32.Update(crc32.Checksum(hdr[:8], castagnoli), castagnoli, buf) != binary.LittleEndian.Uint32(hdr[8:12]) {
			return off, nil // torn or corrupt record
		}
		key := string(buf[:klen])
		val := buf[klen:]
		if vlen == 0 {
			delete(s.index, key)
		} else {
			s.index[key] = val
		}
		off += recHeader + int64(len(buf))
	}
}

// endOfLog maps a short read to the end of the log; any other read error is
// reported, not mistaken for a torn tail (truncating there would drop
// records).
func endOfLog(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// appendRecord encodes one record onto buf.
func appendRecord(buf []byte, key string, value []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(value)))
	buf = append(buf, 0, 0, 0, 0)
	buf = append(append(buf, key...), value...)
	rec := buf[start:]
	crc := crc32.Update(crc32.Checksum(rec[:8], castagnoli), castagnoli, rec[recHeader:])
	binary.LittleEndian.PutUint32(rec[8:12], crc)
	return buf
}

// Set stores value under key (buffered; call Sync for durability). The key
// must not be empty.
func (s *Store) Set(key string, value []byte) error {
	if key == "" {
		return errEmptyKey
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	s.buf = appendRecord(s.buf, key, value)
	if len(s.buf) >= flushAt {
		if err := s.flush(); err != nil {
			return err
		}
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	s.index[key] = cp
	return nil
}

// flush writes the buffered records at the logical end. Called with s.mu
// held. A failed write leaves the records buffered for the next attempt at
// the same offset.
func (s *Store) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	if _, err := s.f.WriteAt(s.buf, s.end); err != nil {
		return err
	}
	s.end += int64(len(s.buf))
	s.alloc = max(s.alloc, s.end)
	if cap(s.buf) > 4*flushAt {
		s.buf = nil // do not pin one large batch's buffer
	} else {
		s.buf = s.buf[:0]
	}
	return nil
}

// grow writes the next growth step of zeros past the file's end once less
// than half a step is left. Called with s.mu held.
func (s *Store) grow() error {
	step := GrowthStep(s.end)
	if s.alloc-s.end >= step/2 {
		return nil
	}
	target := s.end + step
	for off := s.alloc; off < target; {
		n, err := s.f.WriteAt(zeros[:min(int64(len(zeros)), target-off)], off)
		if err != nil {
			return fmt.Errorf("kvstore: grow: %w", err)
		}
		off += int64(n)
	}
	s.alloc = target
	return nil
}

// Get returns the latest value for key (nil if absent).
func (s *Store) Get(key string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[key]
}

// ForEach visits every live key-value pair.
func (s *Store) ForEach(f func(key string, value []byte) error) error {
	s.mu.Lock()
	snapshot := make(map[string][]byte, len(s.index))
	for k, v := range s.index {
		snapshot[k] = v
	}
	s.mu.Unlock()
	for k, v := range snapshot {
		if err := f(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Sync writes the buffered records, allocates the next growth step when due,
// and fsyncs the file. The fsync happens outside the store mutex so
// concurrent Sets are not stalled for the disk's latency (asynchronous
// flushing would otherwise block the commit path).
func (s *Store) Sync() error {
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return errClosed
	}
	err := s.flush()
	if err == nil {
		err = s.grow()
	}
	f := s.f
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return f.Sync()
}

// SetCrashHook installs a crash-injection hook (tests only; see crashHook).
func (s *Store) SetCrashHook(h func(point string)) {
	s.mu.Lock()
	s.crashHook = h
	s.mu.Unlock()
}

// hook must be called with s.mu held (it reads crashHook); the hook itself
// only inspects the filesystem, never the store, so no lock ordering issue.
func (s *Store) hook(point string) {
	if s.crashHook != nil {
		s.crashHook(point)
	}
}

// Size returns the log's logical size in bytes: the header and every record,
// buffered ones included — not the zeroed tail.
func (s *Store) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, errClosed
	}
	return s.end + int64(len(s.buf)), nil
}

const compactSuffix = ".compact"

// Rewrite compacts the log: every live key is offered to transform, which
// returns the value to keep (possibly rewritten; must be non-empty) and
// whether to keep the key at all. The surviving records are written to a
// temp file, fsynced, and atomically renamed over the log, so a crash at any
// point leaves either the complete old log or the complete new one — never a
// mix. Returns the log's logical size before and after.
//
// The store mutex is held for the duration: concurrent Sets block until the
// rewrite completes, which keeps the index and the file in lockstep.
func (s *Store) Rewrite(transform func(key string, value []byte) ([]byte, bool)) (before, after int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, 0, errClosed
	}
	if err := s.flush(); err != nil {
		return 0, 0, err
	}
	before = s.end

	tmpPath := s.path + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return before, before, fmt.Errorf("kvstore: rewrite: %w", err)
	}
	tw := bufio.NewWriterSize(tmp, 1<<16)
	next := make(map[string][]byte, len(s.index))
	hdr := header()
	_, err = tw.Write(hdr[:])
	after = headerLen
	var rec []byte
	for k, v := range s.index {
		if err != nil {
			break
		}
		nv, keep := transform(k, v)
		if !keep {
			continue
		}
		rec = appendRecord(rec[:0], k, nv)
		_, err = tw.Write(rec)
		cp := make([]byte, len(nv))
		copy(cp, nv)
		next[k] = cp
		after += int64(len(rec))
	}
	if err == nil {
		if err = tw.Flush(); err == nil {
			s.hook("compact.written")
			err = tmp.Sync()
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return before, before, fmt.Errorf("kvstore: rewrite: %w", err)
	}
	s.hook("compact.synced")
	if err = os.Rename(tmpPath, s.path); err != nil {
		os.Remove(tmpPath)
		return before, before, fmt.Errorf("kvstore: rewrite rename: %w", err)
	}
	s.hook("compact.renamed")
	// Persist the rename itself. Failing to open the directory is tolerated
	// (some filesystems refuse it), but once we hold the handle a failed
	// fsync means the rename may not survive a crash — the old, compacted-
	// away log could resurface with its latest-wins duplicates gone.
	var dirErr error
	if d, derr := os.Open(filepath.Dir(s.path)); derr == nil {
		dirErr = d.Sync()
		if cerr := d.Close(); dirErr == nil {
			dirErr = cerr
		}
	}

	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		// The old file object points at the renamed-over inode; writing
		// through it would be silent data loss. Fail the store instead.
		s.f.Close()
		s.f = nil
		return before, after, fmt.Errorf("kvstore: rewrite reopen: %w", err)
	}
	s.f.Close()
	s.f = f
	s.end, s.alloc = after, after
	s.index = next
	// Report the directory-sync failure only after the in-memory swap: the
	// store keeps working against the renamed file either way.
	if dirErr != nil {
		return before, after, fmt.Errorf("kvstore: rewrite dir sync: %w", dirErr)
	}
	return before, after, nil
}

// Close writes the buffered records, truncates the file to its logical end
// (dropping the zeroed tail) and closes it.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.flush()
	if err == nil && s.alloc > s.end {
		err = s.f.Truncate(s.end)
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
