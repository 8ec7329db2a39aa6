// Package kvstore is the append-only log file under Tebaldi's write-ahead
// log. The paper outsources persistence to Redis or RocksDB through a plain
// key-value interface (§4.5.4) and needs three things of it: append records,
// read them back in order at recovery, and truncate the log at checkpoints.
// This package is the stdlib-only substitute that does exactly that: Set
// appends a checksummed (key, value) record, Sync makes the records durable,
// Scan visits them in file order, and Rewrite replaces the records a
// checkpoint covers with the checkpoint's own. It keeps no copy of the
// records in memory, and a key may occur any number of times; what a key
// means is the caller's business.
//
// Format. The file starts with a 16-byte header, "TBKV", a little-endian u32
// version (3) and a u64 seal. Records follow it back to back:
//
//	u32 klen | u32 vlen | u32 crc32c(klen|vlen|key|value) | key | value
//
// Keys are never empty, so a record header with klen = vlen = 0 cannot be
// written: it is what the zeroed tail reads as. Keys are at most MaxKeyLen
// and values at most MaxValueLen bytes; Set refuses larger ones, because
// replay reads a larger length as the end of the log.
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
// Sealed prefix. Rewrite writes the whole new file, fsyncs it and only then
// renames it over the log, so every byte of it was durable before the log
// named it. Its header's seal records that length; a log Open creates holds
// seal 0. Below the seal a record cannot be torn: one that is short, reads
// as zeros, exceeds the limits or fails its checksum there is damage, and
// Open fails, naming the file and the offset, and leaves the file as it is.
//
// Torn tail. Past the seal, replay stops at the first such record, and Open
// truncates the file there. Records are written in order, and an
// acknowledged record was covered by a completed fsync, so every
// acknowledged record precedes the first bad one.
//
// A non-empty file without the header is a log of the earlier format (8-byte
// record headers, no checksum), and a file of version 2 has the 8-byte
// header without a seal. Open refuses both and leaves them as they are.
//
// Fault points. Once the log is open, every call that makes it durable —
// each write, the fsyncs, the rename and the truncation — goes through one
// named point of the crash hook (SetCrashHook):
//
//	write            the WriteAt of buffered records (Set, Sync, Scan, Rewrite, Close)
//	grow             each WriteAt of the zeroed tail (Sync)
//	sync             the fsync of the log (Sync)
//	truncate         the truncation to the logical end (Close)
//	compact.flush    the rewrite's buffered writes and seal of the temp file
//	compact.written  the temp file's fsync
//	compact.synced   the rename over the log
//	compact.renamed  the directory's fsync
//
// The hook runs at the point, before the call. Tests copy the log directory
// there to see what a crash at that instant leaves, or return an error,
// which then stands for the call's: the call is not made, and the error
// takes the path the call's own error would. Open's repairs (a fresh
// header, a torn tail truncated) run before a hook can be installed.
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

// MaxKeyLen and MaxValueLen bound one record. Set refuses a larger key or
// value; replay reads a larger length as the end of the log.
const (
	MaxKeyLen   = 1 << 20
	MaxValueLen = 1 << 26
)

const (
	magic     = "TBKV"
	version   = 3 // 1 is the headerless format, 2 the header without a seal
	headerLen = 16
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

// Store is an append-only log of (key, value) records. Set appends; Sync
// writes the buffered records and fsyncs. Rewrite compacts the log in place
// (Tebaldi's checkpoint truncation, §4.5.4): the file is atomically replaced
// by one holding the caller's new records and then the old records it
// keeps, in their order, so the log stays bounded across checkpoints.
type Store struct {
	mu sync.Mutex
	// fileMu keeps f open while a Sync fsyncs it outside mu: Sync takes it
	// for reading before it releases mu, and whoever closes f (Rewrite's
	// swap, Close) takes it for writing under mu.
	// tebaldi:locks after kvstore.Store.mu
	fileMu sync.RWMutex
	f      *os.File // nil once closed
	path   string
	// buf holds encoded records not yet written; they go to offset end.
	buf []byte
	// end is the logical end of the records written to the file; alloc is
	// the file's size. [end, alloc) is zeros.
	end, alloc int64
	// crashHook, when set, runs at every fault point (see the package
	// comment); its error replaces the call the point guards.
	crashHook func(point string) error
}

// Open opens (creating if necessary) the store at path. It reads the log
// once to find its logical end, and truncates a torn tail there.
func Open(path string) (*Store, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	s := &Store{f: f, path: path}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	// A leftover rewrite temp file means a crash hit mid-compaction before
	// the rename: the log just loaded is still the authoritative one.
	os.Remove(path + compactSuffix)
	return s, nil
}

// load checks the file header, finds the end of the valid records and
// truncates the file there (a crash mid-append, or the zeroed tail). A bad
// record below the seal fails it, with the file untouched.
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
		hdr = header(0)
		if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("kvstore: %w", err)
		}
	case string(hdr[:4]) != magic:
		return fmt.Errorf("kvstore: %s has no %q header: it is a log of the earlier format (8-byte record headers, no checksum), which this version cannot read", s.path, magic)
	case binary.LittleEndian.Uint32(hdr[4:8]) != version:
		return fmt.Errorf("kvstore: %s is format version %d, this version reads %d", s.path, binary.LittleEndian.Uint32(hdr[4:8]), version)
	default:
		if valid, err = readRecords(s.f, st.Size(), nil); err != nil {
			return fmt.Errorf("kvstore: replay: %w", err)
		}
		if sealed := int64(binary.LittleEndian.Uint64(hdr[8:])); valid < sealed {
			return fmt.Errorf("kvstore: %s is damaged: the record at offset %d is short, zeroed or fails its checksum, but a rewrite fsynced the first %d bytes before it renamed the file into place; the file is left as it is", s.path, valid, sealed)
		}
		if err := s.f.Truncate(valid); err != nil {
			return fmt.Errorf("kvstore: truncate: %w", err)
		}
	}
	s.end, s.alloc = valid, valid
	return nil
}

// header is the file header of a log whose first sealed bytes are durable.
func header(sealed int64) (h [headerLen]byte) {
	copy(h[:], magic)
	binary.LittleEndian.PutUint32(h[4:8], version)
	binary.LittleEndian.PutUint64(h[8:], uint64(sealed))
	return h
}

// readRecords visits, in order, the valid records of f that lie before
// offset size, and returns the offset after the last one. visit (nil to only
// find the end) gets each record encoded, header included, in a buffer that
// the next record reuses.
func readRecords(f *os.File, size int64, visit func(rec []byte) error) (int64, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, headerLen, size-headerLen), 1<<16)
	off := int64(headerLen)
	rec := make([]byte, recHeader, 1<<10)
	for {
		if _, err := io.ReadFull(r, rec[:recHeader]); err != nil {
			return off, endOfLog(err)
		}
		klen := binary.LittleEndian.Uint32(rec[0:4])
		vlen := binary.LittleEndian.Uint32(rec[4:8])
		if klen == 0 || klen > MaxKeyLen || vlen > MaxValueLen {
			return off, nil // the zeroed tail, or a corrupt length
		}
		n := recHeader + int(klen) + int(vlen)
		if cap(rec) < n {
			rec = append(make([]byte, 0, n), rec[:recHeader]...)
		}
		rec = rec[:n]
		if _, err := io.ReadFull(r, rec[recHeader:]); err != nil {
			return off, endOfLog(err)
		}
		if checksum(rec) != binary.LittleEndian.Uint32(rec[8:12]) {
			return off, nil // torn or corrupt record
		}
		if visit != nil {
			if err := visit(rec); err != nil {
				return off, err
			}
		}
		off += int64(n)
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

// checksum is the crc32c an encoded record carries.
func checksum(rec []byte) uint32 {
	return crc32.Update(crc32.Checksum(rec[:8], castagnoli), castagnoli, rec[recHeader:])
}

// appendRecord encodes one record onto buf.
func appendRecord(buf []byte, key string, value []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(value)))
	buf = append(buf, 0, 0, 0, 0)
	buf = append(append(buf, key...), value...)
	rec := buf[start:]
	binary.LittleEndian.PutUint32(rec[8:12], checksum(rec))
	return buf
}

// split returns an encoded record's key and value; the value aliases rec.
func split(rec []byte) (string, []byte) {
	klen := recHeader + int(binary.LittleEndian.Uint32(rec[0:4]))
	return string(rec[recHeader:klen]), rec[klen:]
}

// checkRecord refuses a record that replay would read as the end of the log.
func checkRecord(key string, value []byte) error {
	if key == "" {
		return errEmptyKey
	}
	if len(key) > MaxKeyLen || len(value) > MaxValueLen {
		return fmt.Errorf("kvstore: a %d-byte key with a %d-byte value exceeds the record limit (%d-byte keys, %d-byte values): replay would end the log there", len(key), len(value), MaxKeyLen, MaxValueLen)
	}
	return nil
}

// Set appends a record (buffered; call Sync for durability). The key must
// not be empty, and neither key nor value may exceed its limit (MaxKeyLen,
// MaxValueLen): a refused record is not buffered.
func (s *Store) Set(key string, value []byte) error {
	if err := checkRecord(key, value); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	s.buf = appendRecord(s.buf, key, value)
	if len(s.buf) >= flushAt {
		return s.flush()
	}
	return nil
}

// flush writes the buffered records at the logical end. Called with s.mu
// held. A failed write leaves the records buffered for the next attempt at
// the same offset.
func (s *Store) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	if err := at(s.crashHook, "write", func() error {
		_, err := s.f.WriteAt(s.buf, s.end)
		return err
	}); err != nil {
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
		chunk := zeros[:min(int64(len(zeros)), target-off)]
		if err := at(s.crashHook, "grow", func() error {
			_, err := s.f.WriteAt(chunk, off) // a short write returns an error
			return err
		}); err != nil {
			return fmt.Errorf("kvstore: grow: %w", err)
		}
		off += int64(len(chunk))
	}
	s.alloc = target
	return nil
}

// Scan visits every record in file order, buffered ones included. The value
// is valid only during the call to f; f must not call into the store. Scan
// stops at f's first error and returns it.
func (s *Store) Scan(f func(key string, value []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if err := s.flush(); err != nil {
		return err
	}
	end, err := readRecords(s.f, s.end, func(rec []byte) error { return f(split(rec)) })
	if err == nil && end != s.end {
		err = fmt.Errorf("kvstore: %s: the record at offset %d no longer reads back", s.path, end)
	}
	return err
}

// Sync writes the buffered records, allocates the next growth step when due,
// and fsyncs the file. The fsync happens outside the store mutex so
// concurrent Sets are not stalled for the disk's latency (asynchronous
// flushing would otherwise block the commit path); a Rewrite that swaps the
// file meanwhile waits for it before it closes the old one.
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
	if err != nil {
		s.mu.Unlock()
		return err
	}
	f, hook := s.f, s.crashHook
	s.fileMu.RLock()
	defer s.fileMu.RUnlock()
	s.mu.Unlock()
	return at(hook, "sync", f.Sync)
}

// SetCrashHook installs the hook that runs at every fault point (see the
// package comment): it may copy the log directory, as a crash there would
// leave it, or return an error, which the store returns in place of the
// call at that point. Tests only; nil removes it.
func (s *Store) SetCrashHook(h func(point string) error) {
	s.mu.Lock()
	s.crashHook = h
	s.mu.Unlock()
}

// at makes the durability call at point: it runs hook (nil for none) and
// then, unless the hook returned an error, call, and returns the hook's
// error or the call's. The hook itself only inspects the filesystem, never
// the store, so it may run under s.mu.
func at(hook func(point string) error, point string, call func() error) error {
	if hook != nil {
		if err := hook(point); err != nil {
			return err
		}
	}
	return call()
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

// Rewrite compacts the log. The new file holds the records of prefix, then
// every record of the log that keep keeps, in file order. It is written to
// a temp file, sealed (its header records its whole length), fsynced and
// atomically renamed over the log, so a crash at any point leaves either the
// complete old log or the complete new one — never a mix. Returns the log's
// logical size before and after.
//
// prefix (nil for none) is written to the temp file before the store mutex
// is taken, so appends go on meanwhile: it calls add once per record, in
// order, and add copies the record before it returns. An error from add or
// from prefix fails the rewrite. The mutex is held from the pass over the
// log's records to the swap: concurrent Sets block until the rewrite
// completes, and then append to the new file. The value passed to keep is
// valid only during the call. Rewrites must not overlap: a second one finds
// the temp file and fails.
func (s *Store) Rewrite(prefix func(add func(key string, value []byte) error) error, keep func(key string, value []byte) bool) (before, after int64, err error) {
	tmpPath := s.path + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("kvstore: rewrite: %w", err)
	}
	tw := bufio.NewWriterSize(tmp, 1<<16)
	var hdr [headerLen]byte // the seal is written last
	_, err = tw.Write(hdr[:])
	after = headerLen
	write := func(rec []byte) error {
		after += int64(len(rec))
		_, err := tw.Write(rec)
		return err
	}
	if prefix != nil && err == nil {
		var rec []byte
		err = prefix(func(key string, value []byte) error {
			if err := checkRecord(key, value); err != nil {
				return err
			}
			rec = appendRecord(rec[:0], key, value)
			return write(rec)
		})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && s.f == nil {
		err = errClosed
	}
	if err == nil {
		err = s.flush()
	}
	before = s.end
	if err == nil {
		var end int64
		end, err = readRecords(s.f, s.end, func(rec []byte) error {
			if !keep(split(rec)) {
				return nil
			}
			return write(rec)
		})
		if err == nil && end != s.end {
			err = fmt.Errorf("the record at offset %d no longer reads back", end)
		}
	}
	if err == nil {
		err = at(s.crashHook, "compact.flush", func() error {
			if err := tw.Flush(); err != nil {
				return err
			}
			hdr = header(after)
			_, err := tmp.WriteAt(hdr[:], 0)
			return err
		})
	}
	if err == nil {
		err = at(s.crashHook, "compact.written", tmp.Sync)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return before, before, fmt.Errorf("kvstore: rewrite: %w", err)
	}
	if err = at(s.crashHook, "compact.synced", func() error { return os.Rename(tmpPath, s.path) }); err != nil {
		os.Remove(tmpPath)
		return before, before, fmt.Errorf("kvstore: rewrite rename: %w", err)
	}
	// Persist the rename itself. Failing to open the directory is tolerated
	// (some filesystems refuse it), but once we hold the handle a failed
	// fsync means the rename may not survive a crash — the old, compacted-
	// away log could resurface.
	dirErr := at(s.crashHook, "compact.renamed", func() error {
		d, err := os.Open(filepath.Dir(s.path))
		if err != nil {
			return nil
		}
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		return err
	})

	// The old file object points at the renamed-over inode; writing through
	// it would be silent data loss. If the new file cannot be opened, f is
	// nil and the store fails instead.
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	s.fileMu.Lock() // an fsync of the old file in flight completes first
	s.f.Close()
	s.f = f
	s.fileMu.Unlock()
	if err != nil {
		return before, after, fmt.Errorf("kvstore: rewrite reopen: %w", err)
	}
	s.end, s.alloc = after, after
	// Report the directory-sync failure only after the swap: the store
	// keeps working against the renamed file either way.
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
		err = at(s.crashHook, "truncate", func() error { return s.f.Truncate(s.end) })
	}
	s.fileMu.Lock()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	s.fileMu.Unlock()
	return err
}
