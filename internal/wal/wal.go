// Package wal is the crash-safe durability layer: a checksummed,
// append-only record log with atomic snapshot compaction, built so that
// process death or torn disk writes at any byte never corrupt the
// state a consumer reads back. The rescache persistence of the serve
// daemon (`serve -state-dir`) sits on it.
//
// The invariants, in decreasing order of importance:
//
//   - no corrupt byte is ever served: a record is only applied when its
//     CRC-32C validates and its generation matches the log header, so a
//     torn or bit-flipped record can hide an entry but never alter one;
//   - a truncated or corrupt tail is dropped cleanly: replay stops at
//     the last valid record and Open truncates the file there, so the
//     next append continues from a well-formed log;
//   - a corrupt interior record quarantines the entry, never the store:
//     replay resynchronises on the next record marker and keeps going,
//     so one damaged region costs its own records and nothing else;
//   - compaction is atomic: the snapshot is written to a temp file,
//     synced, and renamed over the log, so a crash anywhere leaves
//     either the complete old log or the complete new one.
//
// Every disk operation passes a faultinject seam (wal:write, wal:fsync,
// wal:rename, wal:replay) and the filesystem itself is injectable, so
// the recovery matrix can fire errors — or, in lethal mode, SIGKILL the
// process mid-write — at every step.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"delinq/internal/faultinject"
)

// On-disk layout (all integers little-endian):
//
//	file   := header record*
//	header := magic8 gen4 crc4          crc4 = CRC-32C(magic8 gen4)
//	record := mark4 len4 crc4 gen4 payload
//	payload:= kind1 klen4 key value     len4 = len(payload)
//	                                    crc4 = CRC-32C(payload)
//
// Every record is a put: kind is always 0, and a record of any other
// kind fails decoding like any other damage.
//
// The record mark is a resync point: replay that hits a corrupt record
// scans forward for the next mark whose record validates. The
// generation stamps guard against a torn compaction interleaving bytes
// from two log lifetimes: records whose generation differs from the
// header's are quarantined.
const (
	logMagic      = "delinqW1"
	headerSize    = 16
	recHeaderSize = 16
	// maxRecordBytes bounds one record so a corrupt length field cannot
	// demand an absurd allocation during replay.
	maxRecordBytes = 1 << 28
)

var recMark = [4]byte{0xD1, 0x5C, 0xA1, 0x0D}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const kindPut = 0

const tmpSuffix = ".tmp"

// Entry is one live key/value pair recovered by replay, returned in the
// order the surviving records were appended, so consumers that care
// about recency (an LRU) can reconstruct it.
type Entry struct {
	Key string
	Val []byte
}

// ReplayStats describes what Open found in an existing log.
type ReplayStats struct {
	Records          int  // valid records applied
	Entries          int  // live entries after replay
	TornTail         bool // a truncated or corrupt tail was dropped
	DroppedTailBytes int  // bytes discarded from the tail
	Quarantined      int  // corrupt interior regions / foreign-generation records skipped
	Generation       uint32
	Bytes            int64 // log size after recovery truncation
}

// Dirty reports whether recovery dropped anything: a dirty log holds
// dead or damaged bytes that only a Compact reclaims.
func (st ReplayStats) Dirty() bool {
	return st.TornTail || st.Quarantined > 0
}

// Options configures Open.
type Options struct {
	// FS is the filesystem seam; nil means the real OS filesystem.
	FS FS
	// Name is the faultinject target and diagnostic label for this
	// store; empty means the log file's base name.
	Name string
}

// Store is one open log. All methods are safe for concurrent use.
type Store struct {
	fs   FS
	name string
	path string

	mu     sync.Mutex
	f      *appendFile
	gen    uint32
	size   int64
	closed bool
}

// Open opens (or creates) the log at path, replays it, and returns the
// store positioned for appends, the surviving entries in append order,
// and the replay statistics. Recovery truncates a torn tail in place;
// interior quarantined regions stay on disk (skipped on every replay)
// until the next Compact rewrites the log. An unreadable header resets
// the store to empty — every entry recomputes, none is served corrupt.
func Open(path string, opts Options) (*Store, []Entry, ReplayStats, error) {
	s := &Store{fs: opts.FS, name: opts.Name, path: path}
	if s.fs == nil {
		s.fs = OSFS{}
	}
	if s.name == "" {
		s.name = filepath.Base(path)
	}

	// A leftover temp file is a compaction that never reached its
	// rename: the old log is still the authoritative state.
	s.fs.Remove(path + tmpSuffix)

	b, err := s.fs.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, ReplayStats{}, fmt.Errorf("wal %s: read: %w", s.name, err)
	}

	var st ReplayStats
	switch {
	case os.IsNotExist(err) || len(b) == 0:
		s.gen = 1
	default:
		gen, ok := decodeHeader(b)
		if !ok {
			// An unreadable header orphans every record (their
			// generation cannot be checked): restart from scratch.
			s.gen = 1
			st = ReplayStats{TornTail: true, DroppedTailBytes: len(b)}
		} else {
			s.gen = gen
			var entries []Entry
			entries, st = replay(b, gen, s.name)
			f, err := s.fs.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, nil, ReplayStats{}, fmt.Errorf("wal %s: open: %w", s.name, err)
			}
			// Drop the torn tail so the next append extends a
			// well-formed log.
			if st.Bytes < int64(len(b)) {
				if err := f.Truncate(st.Bytes); err != nil {
					f.Close()
					return nil, nil, ReplayStats{}, fmt.Errorf("wal %s: truncate tail: %w", s.name, err)
				}
			}
			s.f = &appendFile{f: f, off: st.Bytes}
			s.size = st.Bytes
			st.Generation = s.gen
			return s, entries, st, nil
		}
	}

	if err := s.createFresh(); err != nil {
		return nil, nil, ReplayStats{}, err
	}
	st.Generation = s.gen
	st.Bytes = s.size
	return s, nil, st, nil
}

// replay walks the record stream, applying valid records and
// resynchronising past corrupt ones. It returns the live entries in
// last-write order and the statistics, with Bytes set to the end offset
// of the last valid record (the recovery truncation point). name is the
// faultinject target for the wal:replay seam.
func replay(b []byte, gen uint32, name string) ([]Entry, ReplayStats) {
	st := ReplayStats{Generation: gen}

	injectedDrop := 0
	if fire(faultinject.WALReplay, name, nil, nil, 0) != nil {
		// Error mode: the unread second half of the log is dropped,
		// exactly as if the tail had torn there. Those entries
		// recompute on demand; nothing corrupt survives.
		keep := headerSize + (len(b)-headerSize)/2
		injectedDrop = len(b) - keep
		b = b[:keep]
	}

	// Every valid put in log order, and the index of each key's last:
	// an entry is live at the position of its last put.
	var puts []Entry
	last := map[string]int{}

	off := headerSize
	lastGood := off
	inCorrupt := false // inside a damaged region, pre-resync
	for off+recHeaderSize <= len(b) {
		key, val, rgen, size, ok := decodeRecord(b[off:])
		if !ok {
			inCorrupt = true
			// Resync: scan for the next record mark and try again.
			next := findMark(b, off+1)
			if next < 0 {
				break
			}
			off = next
			continue
		}
		if inCorrupt {
			// A valid record after damage: the damage was interior.
			st.Quarantined++
			inCorrupt = false
		}
		if rgen != gen {
			// A record from another log lifetime (torn compaction):
			// quarantine it, trust nothing it says.
			st.Quarantined++
			off += size
			lastGood = off
			continue
		}
		st.Records++
		last[key] = len(puts)
		puts = append(puts, Entry{Key: key, Val: val})
		off += size
		lastGood = off
	}
	if lastGood < len(b) || injectedDrop > 0 {
		st.TornTail = true
		st.DroppedTailBytes = len(b) - lastGood + injectedDrop
	}
	st.Bytes = int64(lastGood)

	entries := make([]Entry, 0, len(last))
	for i, e := range puts {
		if last[e.Key] == i {
			entries = append(entries, e)
		}
	}
	st.Entries = len(entries)
	return entries, st
}

// decodeHeader validates the 16-byte file header and returns its
// generation.
func decodeHeader(b []byte) (uint32, bool) {
	if len(b) < headerSize || string(b[:8]) != logMagic {
		return 0, false
	}
	gen := binary.LittleEndian.Uint32(b[8:12])
	crc := binary.LittleEndian.Uint32(b[12:16])
	if crc32.Checksum(b[:12], castagnoli) != crc {
		return 0, false
	}
	return gen, true
}

// decodeRecord parses one put record at the start of rec (which holds
// at least recHeaderSize bytes). ok=false means corrupt, truncated or
// of another kind.
func decodeRecord(rec []byte) (key string, val []byte, gen uint32, size int, ok bool) {
	if *(*[4]byte)(rec[0:4]) != recMark {
		return "", nil, 0, 0, false
	}
	plen := binary.LittleEndian.Uint32(rec[4:8])
	crc := binary.LittleEndian.Uint32(rec[8:12])
	gen = binary.LittleEndian.Uint32(rec[12:16])
	if plen > maxRecordBytes {
		return "", nil, 0, 0, false
	}
	size = recHeaderSize + int(plen)
	if size > len(rec) {
		// The declared payload extends past EOF: a torn tail, unless a
		// valid record follows the damage (the resync scan decides).
		return "", nil, 0, 0, false
	}
	payload := rec[recHeaderSize:size]
	if crc32.Checksum(payload, castagnoli) != crc {
		return "", nil, 0, 0, false
	}
	if len(payload) < 5 {
		return "", nil, 0, 0, false
	}
	klen := binary.LittleEndian.Uint32(payload[1:5])
	if payload[0] != kindPut || int64(klen) > int64(len(payload)-5) {
		return "", nil, 0, 0, false
	}
	key = string(payload[5 : 5+klen])
	val = payload[5+klen:]
	return key, val, gen, size, true
}

// findMark returns the next offset >= from where a whole record header
// could begin with the record mark, or -1.
func findMark(b []byte, from int) int {
	for i := from; i+recHeaderSize <= len(b); i++ {
		if *(*[4]byte)(b[i : i+4]) == recMark {
			return i
		}
	}
	return -1
}

// encodeRecord renders one put record for generation gen.
func encodeRecord(key string, val []byte, gen uint32) []byte {
	plen := 5 + len(key) + len(val)
	rec := make([]byte, recHeaderSize+plen)
	copy(rec[0:4], recMark[:])
	binary.LittleEndian.PutUint32(rec[4:8], uint32(plen))
	binary.LittleEndian.PutUint32(rec[12:16], gen)
	p := rec[recHeaderSize:]
	p[0] = kindPut
	binary.LittleEndian.PutUint32(p[1:5], uint32(len(key)))
	copy(p[5:], key)
	copy(p[5+len(key):], val)
	binary.LittleEndian.PutUint32(rec[8:12], crc32.Checksum(p, castagnoli))
	return rec
}

// encodeHeader renders the 16-byte file header for generation gen.
func encodeHeader(gen uint32) []byte {
	h := make([]byte, headerSize)
	copy(h, logMagic)
	binary.LittleEndian.PutUint32(h[8:12], gen)
	binary.LittleEndian.PutUint32(h[12:16], crc32.Checksum(h[:12], castagnoli))
	return h
}

// RecordOverhead is the fixed per-record byte cost beyond key+value
// (record header plus the kind/keylen payload prefix). Exported so
// consumers and tests can compute exact offsets.
const RecordOverhead = recHeaderSize + 5

// Append durably records key → val, replacing any earlier value. The
// record is fully on disk and synced before Append returns; a crash
// mid-append leaves a torn tail the next Open drops. An error means the
// record is not persisted: a failed write or fsync is rolled back.
func (s *Store) Append(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal %s: append on closed store", s.name)
	}
	rec := encodeRecord(key, val, s.gen)

	if err := fire(faultinject.WALWrite, s.name, s.f.f, rec, s.f.off); err != nil {
		return err
	}

	n, err := s.f.Write(rec)
	if err != nil {
		// Roll the partial write back so the in-memory offset and the
		// file agree; if even that fails, the next Open drops the torn
		// tail anyway.
		s.f.Truncate(s.size)
		return fmt.Errorf("wal %s: append: wrote %d of %d: %w", s.name, n, len(rec), err)
	}

	// An unsynced record is rolled back too, so Size() stays the
	// file's length and the record never replays.
	if err := fire(faultinject.WALFsync, s.name, nil, nil, 0); err != nil {
		s.f.Truncate(s.size)
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.f.Truncate(s.size)
		return fmt.Errorf("wal %s: fsync: %w", s.name, err)
	}
	s.size += int64(len(rec))
	return nil
}

// Compact atomically replaces the log with a snapshot holding exactly
// the given entries, stamped with the next generation. The snapshot is
// written to a temp file, synced, and renamed over the log; a crash at
// any point leaves either the old log or the new one, never a mix —
// and an old-generation record that survives a torn rename is
// quarantined by the generation check on the next replay.
func (s *Store) Compact(entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal %s: compact on closed store", s.name)
	}
	gen := s.gen + 1
	tmp := s.path + tmpSuffix
	f, err := s.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal %s: compact: %w", s.name, err)
	}
	var size int64
	write := func(b []byte) {
		if err != nil {
			return
		}
		if err = fire(faultinject.WALWrite, s.name, f, b, size); err != nil {
			return
		}
		if _, err = f.WriteAt(b, size); err == nil {
			size += int64(len(b))
		}
	}
	write(encodeHeader(gen))
	for _, e := range entries {
		write(encodeRecord(e.Key, e.Val, gen))
	}
	if err == nil {
		if err = fire(faultinject.WALFsync, s.name, nil, nil, 0); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err == nil {
		err = fire(faultinject.WALRename, s.name, nil, nil, 0)
	}
	if err == nil {
		err = s.fs.Rename(tmp, s.path)
	}
	if err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("wal %s: compact: %w", s.name, err)
	}

	// The rename happened: swap the append handle to the new log.
	nf, err := s.fs.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		// The new log is durable but unopenable: fail closed rather
		// than keep appending to the replaced file's dangling handle.
		s.closed = true
		s.f.Close()
		return fmt.Errorf("wal %s: compact: reopen: %w", s.name, err)
	}
	s.f.Close()
	s.f = &appendFile{f: nf, off: size}
	s.gen = gen
	s.size = size
	return nil
}

// createFresh writes a brand-new empty log at the store's current
// generation. Only called from Open, before the store is shared.
func (s *Store) createFresh() error {
	f, err := s.fs.OpenFile(s.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal %s: create: %w", s.name, err)
	}
	b := encodeHeader(s.gen)
	if _, err := f.WriteAt(b, 0); err != nil {
		f.Close()
		return fmt.Errorf("wal %s: create: %w", s.name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal %s: create: %w", s.name, err)
	}
	s.f = &appendFile{f: f, off: int64(len(b))}
	s.size = int64(len(b))
	return nil
}

// Close syncs and closes the log. Further operations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.f.Sync()
	return s.f.Close()
}

// Generation returns the current log generation (bumped by Compact).
func (s *Store) Generation() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Size returns the log's current byte size.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// appendFile tracks the append offset over a File opened read-write.
// (O_APPEND is not part of the FS seam's contract, and recovery needs
// exact offsets anyway: Open positions the cursor at the truncation
// point, past which every write lands sequentially.)
type appendFile struct {
	f   File
	off int64
}

func (a *appendFile) Write(p []byte) (int, error) {
	n, err := a.f.WriteAt(p, a.off)
	a.off += int64(n)
	return n, err
}

func (a *appendFile) Sync() error { return a.f.Sync() }

func (a *appendFile) Truncate(size int64) error {
	err := a.f.Truncate(size)
	if err == nil && size < a.off {
		a.off = size
	}
	return err
}

func (a *appendFile) Close() error { return a.f.Close() }

// fire passes one disk fault seam of the store called name. An unarmed
// seam returns nil; an armed one returns the injected fault or, in
// lethal mode, SIGKILLs the process, after writing and syncing the
// first half of b at off in f when b is given: a death mid-write whose
// tear survives the page cache.
func fire(pt faultinject.Point, name string, f File, b []byte, off int64) error {
	if !faultinject.Fires(pt, name) {
		return nil
	}
	if faultinject.Lethal() {
		if b != nil {
			f.WriteAt(b[:len(b)/2], off)
			f.Sync()
		}
		killSelf()
	}
	return &faultinject.Fault{Point: pt, Target: name}
}

// killSelf delivers SIGKILL to this process: the lethal arm of the
// disk seams. It never returns.
func killSelf() {
	p, _ := os.FindProcess(os.Getpid())
	p.Kill()
	select {} // the signal is asynchronous; never execute past it
}
