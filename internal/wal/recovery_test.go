package wal

// The recovery matrix: every way a log can be damaged on disk —
// truncation at every byte offset of the final record, a bit flip at
// every byte of the body, a corrupted header, interleaved generations —
// must leave a store that (a) reopens without error and (b) never
// returns a byte that differs from what was appended. Damage may hide
// entries (they recompute); it may never alter them.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"testing"
)

// buildLog writes a fresh log with n entries and returns the raw bytes
// plus the expected key→value map.
func buildLog(t *testing.T, path string, n int) ([]byte, map[string][]byte) {
	t.Helper()
	s, _, _, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := []byte(fmt.Sprintf("value-%03d-payload", i))
		if err := s.Append(k, v); err != nil {
			t.Fatalf("Append: %v", err)
		}
		want[k] = v
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b, want
}

// assertNeverCorrupt fails if any replayed entry's value differs from
// the byte-exact original. Missing entries are fine — damage hides,
// never alters.
func assertNeverCorrupt(t *testing.T, entries []Entry, want map[string][]byte) {
	t.Helper()
	for _, e := range entries {
		orig, ok := want[e.Key]
		if !ok {
			t.Fatalf("replay invented key %q", e.Key)
		}
		if !bytes.Equal(e.Val, orig) {
			t.Fatalf("corrupt value served for %q: got %q want %q", e.Key, e.Val, orig)
		}
	}
}

// TestTruncationSweep cuts the log at every byte offset of the final
// record (and the boundary on each side). At every cut the store must
// reopen, serve the surviving prefix byte-exact, and accept appends.
func TestTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	full, want := buildLog(t, dir+"/ref.wal", 6)

	lastVal := want["key-005"]
	lastRecLen := RecordOverhead + len("key-005") + len(lastVal)
	lastStart := len(full) - lastRecLen

	for cut := lastStart; cut <= len(full); cut++ {
		path := fmt.Sprintf("%s/cut-%d.wal", dir, cut)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, entries, st, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		assertNeverCorrupt(t, entries, want)
		wantEntries := 5
		if cut == len(full) {
			wantEntries = 6
		}
		if len(entries) != wantEntries {
			t.Fatalf("cut=%d: entries=%d want %d (stats %+v)", cut, len(entries), wantEntries, st)
		}
		// A cut strictly inside the record is a torn tail; a cut at
		// either record boundary leaves a clean (just shorter) log.
		if wantTorn := cut > lastStart && cut < len(full); st.TornTail != wantTorn {
			t.Fatalf("cut=%d: TornTail=%v want %v: %+v", cut, st.TornTail, wantTorn, st)
		}
		// Recovery truncated in place: the next append extends a
		// well-formed log, and a fresh replay sees it.
		if err := s.Append("resumed", []byte("post-recovery")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		s.Close()
		_, entries2, st2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if st2.Dirty() {
			t.Fatalf("cut=%d: log still dirty after recovery: %+v", cut, st2)
		}
		m := entryMap(entries2)
		if string(m["resumed"]) != "post-recovery" || len(entries2) != wantEntries+1 {
			t.Fatalf("cut=%d: resumed log wrong: %d entries", cut, len(entries2))
		}
	}
}

// TestBitFlipSweep XORs 0x01 into every single byte of the body, one
// log at a time. The store must always reopen and never serve a
// changed byte; at most the damaged record (or, for header damage, the
// whole log) goes missing.
func TestBitFlipSweep(t *testing.T) {
	dir := t.TempDir()
	full, want := buildLog(t, dir+"/ref.wal", 4)
	path := dir + "/flip.wal"

	for pos := 0; pos < len(full); pos++ {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x01
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, entries, st, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("flip@%d: Open: %v", pos, err)
		}
		assertNeverCorrupt(t, entries, want)
		if pos < headerSize {
			// Header damage resets the store: nothing survives, but
			// the store works.
			if len(entries) != 0 {
				t.Fatalf("flip@%d (header): %d entries survived a reset", pos, len(entries))
			}
		} else if len(entries) < len(want)-1 {
			// One flipped byte damages at most one record.
			t.Fatalf("flip@%d: only %d of %d entries survived (stats %+v)", pos, len(entries), len(want), st)
		}
		// Whatever recovery decided, the store accepts new work.
		if err := s.Append("fresh", []byte("x")); err != nil {
			t.Fatalf("flip@%d: append: %v", pos, err)
		}
		s.Close()
	}
}

// TestMultiByteCorruption smashes a whole interior record with garbage
// (no resync mark inside): the damaged record quarantines, every other
// record survives.
func TestMultiByteCorruption(t *testing.T) {
	dir := t.TempDir()
	full, want := buildLog(t, dir+"/ref.wal", 5)
	recLen := RecordOverhead + len("key-000") + len(want["key-000"])
	// Record 2 spans [headerSize+2*recLen, headerSize+3*recLen).
	start := headerSize + 2*recLen
	mut := append([]byte(nil), full...)
	for i := start; i < start+recLen; i++ {
		mut[i] = 0x55
	}
	path := dir + "/smash.wal"
	os.WriteFile(path, mut, 0o644)

	s, entries, st, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	assertNeverCorrupt(t, entries, want)
	if len(entries) != 4 {
		t.Fatalf("entries=%d want 4 (stats %+v)", len(entries), st)
	}
	if st.Quarantined == 0 || st.TornTail {
		t.Fatalf("interior damage misclassified: %+v", st)
	}
	if m := entryMap(entries); m["key-002"] != nil {
		t.Fatal("smashed record resurrected")
	}
	// Compact reclaims the quarantined region.
	if err := s.Compact(entries); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	s.Close()
	_, entries2, st2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st2.Dirty() || len(entries2) != 4 {
		t.Fatalf("post-compact: stats=%+v entries=%d", st2, len(entries2))
	}
}

// TestHeaderGarbage replaces the header with noise: the store resets to
// empty and keeps working.
func TestHeaderGarbage(t *testing.T) {
	dir := t.TempDir()
	full, _ := buildLog(t, dir+"/ref.wal", 3)
	mut := append([]byte(nil), full...)
	copy(mut, "NOTAMAGIC0123456")
	path := dir + "/hdr.wal"
	os.WriteFile(path, mut, 0o644)

	s, entries, st, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(entries) != 0 || !st.TornTail || st.DroppedTailBytes != len(mut) {
		t.Fatalf("header reset: entries=%d stats=%+v", len(entries), st)
	}
	if err := s.Append("reborn", []byte("y")); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	s.Close()
	_, entries2, st2, err := Open(path, Options{})
	if err != nil || st2.Dirty() || len(entries2) != 1 {
		t.Fatalf("reopen after reset: err=%v stats=%+v entries=%d", err, st2, len(entries2))
	}
}

// TestGarbageFile opens a file that was never a log at all.
func TestGarbageFile(t *testing.T) {
	path := t.TempDir() + "/garbage.wal"
	os.WriteFile(path, bytes.Repeat([]byte{0xA7, 0x3C}, 300), 0o644)
	s, entries, st, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if len(entries) != 0 || !st.TornTail {
		t.Fatalf("garbage file: entries=%d stats=%+v", len(entries), st)
	}
}

// TestShortFile covers every length below one full header.
func TestShortFile(t *testing.T) {
	dir := t.TempDir()
	full, _ := buildLog(t, dir+"/ref.wal", 1)
	for n := 1; n < headerSize; n++ {
		path := fmt.Sprintf("%s/short-%d.wal", dir, n)
		os.WriteFile(path, full[:n], 0o644)
		s, entries, _, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("len=%d: Open: %v", n, err)
		}
		if len(entries) != 0 {
			t.Fatalf("len=%d: entries from a headerless file", n)
		}
		s.Close()
	}
}

// TestForeignGenerationQuarantined appends a record stamped with a
// stale generation (what a torn compaction could leave interleaved):
// replay must quarantine it, not apply it.
func TestForeignGenerationQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/gen.wal"
	s, _, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Append("current", []byte("good"))
	s.Compact([]Entry{{Key: "current", Val: []byte("good")}}) // now gen 2
	s.Close()

	// Splice a gen-1 record onto the gen-2 log.
	stale := encodeRecord("stale", []byte("old-lifetime"), 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(stale)
	f.Close()

	_, entries, st, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st.Quarantined != 1 || st.TornTail {
		t.Fatalf("stale generation not quarantined: %+v", st)
	}
	m := entryMap(entries)
	if m["stale"] != nil || string(m["current"]) != "good" {
		t.Fatalf("entries: %+v", entries)
	}
}

// TestCorruptLengthField plants a record whose length field claims more
// than maxRecordBytes: replay must reject it without allocating.
func TestCorruptLengthField(t *testing.T) {
	dir := t.TempDir()
	full, want := buildLog(t, dir+"/ref.wal", 2)
	mut := append([]byte(nil), full...)
	// First record's length field is at headerSize+4.
	mut[headerSize+4] = 0xFF
	mut[headerSize+5] = 0xFF
	mut[headerSize+6] = 0xFF
	mut[headerSize+7] = 0x7F
	path := dir + "/len.wal"
	os.WriteFile(path, mut, 0o644)
	s, entries, _, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	assertNeverCorrupt(t, entries, want)
}

// TestOtherKindQuarantined: every record a store writes is a put (kind
// 0). A record of any other kind, here a kind-1 record with a valid
// checksum between two puts, fails decoding like any other damage and
// is quarantined; the puts around it survive.
func TestOtherKindQuarantined(t *testing.T) {
	path := t.TempDir() + "/kind.wal"
	s, _, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Append("before", []byte("1"))
	s.Close()

	other := encodeRecord("before", nil, 1)
	other[recHeaderSize] = 1
	binary.LittleEndian.PutUint32(other[8:12], crc32.Checksum(other[recHeaderSize:], castagnoli))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(other)
	f.Write(encodeRecord("after", []byte("2"), 1))
	f.Close()

	_, entries, st, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m := entryMap(entries)
	if st.Quarantined != 1 || st.TornTail || st.Records != 2 || string(m["before"]) != "1" || string(m["after"]) != "2" {
		t.Fatalf("kind-1 record not quarantined: stats=%+v entries=%+v", st, entries)
	}
}
