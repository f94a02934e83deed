package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"delinq/internal/faultinject"
)

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "state.wal")
}

func mustOpen(t *testing.T, path string, opts Options) (*Store, []Entry, ReplayStats) {
	t.Helper()
	s, entries, st, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s, entries, st
}

func entryMap(entries []Entry) map[string][]byte {
	m := make(map[string][]byte, len(entries))
	for _, e := range entries {
		m[e.Key] = e.Val
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	path := tempLog(t)
	s, entries, st := mustOpen(t, path, Options{})
	if len(entries) != 0 || st.Records != 0 || st.Generation != 1 {
		t.Fatalf("fresh open: entries=%d stats=%+v", len(entries), st)
	}
	want := map[string][]byte{
		"alpha": []byte("value-one"),
		"beta":  {0, 1, 2, 0xFF, 0},
		"gamma": nil,
	}
	for _, k := range []string{"alpha", "beta", "gamma"} {
		if err := s.Append(k, want[k]); err != nil {
			t.Fatalf("Append(%s): %v", k, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, entries, st := mustOpen(t, path, Options{})
	defer s2.Close()
	if st.Records != 3 || st.Entries != 3 || st.TornTail || st.Quarantined != 0 {
		t.Fatalf("replay stats: %+v", st)
	}
	if st.Dirty() {
		t.Fatalf("clean log reported dirty: %+v", st)
	}
	got := entryMap(entries)
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %s: got %q want %q", k, got[k], v)
		}
	}
	// Replay order is append order.
	for i, k := range []string{"alpha", "beta", "gamma"} {
		if entries[i].Key != k {
			t.Fatalf("entry %d = %s, want %s", i, entries[i].Key, k)
		}
	}
}

func TestOverwriteMovesToBack(t *testing.T) {
	path := tempLog(t)
	s, _, _ := mustOpen(t, path, Options{})
	s.Append("a", []byte("1"))
	s.Append("b", []byte("2"))
	s.Append("a", []byte("3"))
	s.Close()

	_, entries, st := mustOpen(t, path, Options{})
	if st.Records != 3 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if entries[0].Key != "b" || entries[1].Key != "a" || string(entries[1].Val) != "3" {
		t.Fatalf("order/value wrong: %+v", entries)
	}
}

func TestCompact(t *testing.T) {
	path := tempLog(t)
	s, _, _ := mustOpen(t, path, Options{})
	// Five keys, each written three times before its live value: 15 of
	// the 20 records are dead overwrites, and only a compaction
	// reclaims them.
	for round := 0; round < 3; round++ {
		for i := 15; i < 20; i++ {
			s.Append(fmt.Sprintf("k%02d", i), []byte("stale"))
		}
	}
	live := make([]Entry, 0, 5)
	for i := 15; i < 20; i++ {
		e := Entry{Key: fmt.Sprintf("k%02d", i), Val: []byte(fmt.Sprintf("v%02d", i))}
		s.Append(e.Key, e.Val)
		live = append(live, e)
	}
	before := s.Size()
	if err := s.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s.Size() >= before {
		t.Fatalf("compaction did not shrink: %d -> %d", before, s.Size())
	}
	if s.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", s.Generation())
	}
	// The store stays appendable after compaction.
	if err := s.Append("k20", []byte("v20")); err != nil {
		t.Fatalf("post-compact append: %v", err)
	}
	s.Close()

	_, entries, st := mustOpen(t, path, Options{})
	if st.Generation != 2 || st.Entries != 6 || st.Dirty() {
		t.Fatalf("stats after compact: %+v", st)
	}
	got := entryMap(entries)
	for i := 15; i <= 20; i++ {
		k := fmt.Sprintf("k%02d", i)
		if string(got[k]) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("key %s: got %q", k, got[k])
		}
	}
}

func TestTmpLeftoverRemovedAtOpen(t *testing.T) {
	path := tempLog(t)
	s, _, _ := mustOpen(t, path, Options{})
	s.Append("real", []byte("data"))
	s.Close()
	// A half-finished compaction leaves a temp file; the old log wins.
	if err := os.WriteFile(path+tmpSuffix, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, entries, _ := mustOpen(t, path, Options{})
	defer s2.Close()
	if len(entries) != 1 || entries[0].Key != "real" {
		t.Fatalf("entries: %+v", entries)
	}
	if _, err := os.Stat(path + tmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file not cleaned up: %v", err)
	}
}

func TestClosedStore(t *testing.T) {
	path := tempLog(t)
	s, _, _ := mustOpen(t, path, Options{})
	s.Append("a", nil)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if err := s.Append("b", nil); err == nil {
		t.Fatal("append on closed store succeeded")
	}
	if err := s.Compact(nil); err == nil {
		t.Fatal("compact on closed store succeeded")
	}
}

func TestAccessors(t *testing.T) {
	path := tempLog(t)
	s, _, _ := mustOpen(t, path, Options{Name: "custom"})
	defer s.Close()
	if s.Generation() != 1 {
		t.Fatalf("fresh generation = %d, want 1", s.Generation())
	}
	if s.Size() != headerSize {
		t.Fatalf("fresh size = %d, want %d", s.Size(), headerSize)
	}
	s.Append("k", []byte("v"))
	if want := int64(headerSize + RecordOverhead + 2); s.Size() != want {
		t.Fatalf("size = %d, want %d", s.Size(), want)
	}
}

// --- FS error injection ---------------------------------------------------

// faultFS wraps OSFS and fails chosen operations.
type faultFS struct {
	OSFS
	failOpen   bool
	failRead   bool
	failRename bool
	writeErr   error // injected into files' WriteAt
	syncErr    error
	truncErr   error
}

var errInjected = errors.New("injected fs failure")

func (f *faultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if f.failOpen {
		return nil, errInjected
	}
	file, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if f.failRead {
		return nil, errInjected
	}
	return f.OSFS.ReadFile(name)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if f.failRename {
		return errInjected
	}
	return f.OSFS.Rename(oldpath, newpath)
}

type faultFile struct {
	File
	fs *faultFS
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.writeErr != nil {
		// A torn write: half the bytes land, then the error.
		f.File.WriteAt(p[:len(p)/2], off)
		return len(p) / 2, f.fs.writeErr
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	if f.fs.syncErr != nil {
		return f.fs.syncErr
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.fs.truncErr != nil {
		return f.fs.truncErr
	}
	return f.File.Truncate(size)
}

func TestOpenReadError(t *testing.T) {
	if _, _, _, err := Open(tempLog(t), Options{FS: &faultFS{failRead: true}}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
}

func TestOpenCreateError(t *testing.T) {
	if _, _, _, err := Open(tempLog(t), Options{FS: &faultFS{failOpen: true}}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
}

func TestAppendWriteErrorRollsBack(t *testing.T) {
	path := tempLog(t)
	ffs := &faultFS{}
	s, _, _ := mustOpen(t, path, Options{FS: ffs})
	s.Append("good", []byte("ok"))

	ffs.writeErr = errInjected
	if err := s.Append("bad", []byte("torn")); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	ffs.writeErr = nil
	// The partial write was rolled back; appends continue cleanly.
	if err := s.Append("after", []byte("fine")); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	s.Close()

	_, entries, st := mustOpen(t, path, Options{})
	got := entryMap(entries)
	if st.Dirty() || len(got) != 2 || string(got["good"]) != "ok" || string(got["after"]) != "fine" {
		t.Fatalf("after rollback: stats=%+v entries=%v", st, entries)
	}
}

func TestAppendSyncError(t *testing.T) {
	path := tempLog(t)
	ffs := &faultFS{}
	s, _, _ := mustOpen(t, path, Options{FS: ffs})
	s.Append("a", []byte("1"))
	ffs.syncErr = errInjected
	if err := s.Append("b", []byte("2")); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	ffs.syncErr = nil
	if err := s.Append("c", []byte("3")); err != nil {
		t.Fatalf("append after failed fsync: %v", err)
	}
	checkUnsyncedRolledBack(t, s, path)
}

// checkUnsyncedRolledBack is the contract after Append(a), an Append(b)
// whose fsync failed, and Append(c): the store's size is the file's,
// and a reopen replays a and c but not b.
func checkUnsyncedRolledBack(t *testing.T, s *Store, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != fi.Size() {
		t.Errorf("Size() = %d, file holds %d bytes", s.Size(), fi.Size())
	}
	s.Close()
	_, entries, st := mustOpen(t, path, Options{})
	if st.Dirty() || len(entries) != 2 || entries[0].Key != "a" || entries[1].Key != "c" {
		t.Fatalf("replayed %+v (stats %+v), want a then c", entries, st)
	}
}

func TestCompactRenameErrorKeepsOldLog(t *testing.T) {
	path := tempLog(t)
	ffs := &faultFS{}
	s, _, _ := mustOpen(t, path, Options{FS: ffs})
	s.Append("k", []byte("v"))

	ffs.failRename = true
	if err := s.Compact([]Entry{{Key: "k", Val: []byte("v")}}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if s.Generation() != 1 {
		t.Fatalf("failed compact bumped generation to %d", s.Generation())
	}
	if _, err := os.Stat(path + tmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file not removed after failed compact: %v", err)
	}
	// The old log is still live and appendable.
	ffs.failRename = false
	if err := s.Append("k2", []byte("v2")); err != nil {
		t.Fatalf("append after failed compact: %v", err)
	}
	s.Close()
	_, entries, _ := mustOpen(t, path, Options{})
	if got := entryMap(entries); len(got) != 2 || string(got["k"]) != "v" {
		t.Fatalf("entries: %+v", entries)
	}
}

func TestCompactWriteError(t *testing.T) {
	path := tempLog(t)
	ffs := &faultFS{}
	s, _, _ := mustOpen(t, path, Options{FS: ffs})
	s.Append("k", []byte("v"))
	ffs.writeErr = errInjected
	if err := s.Compact([]Entry{{Key: "k", Val: []byte("v")}}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	ffs.writeErr = nil
	s.Close()
	_, entries, _ := mustOpen(t, path, Options{})
	if len(entries) != 1 || string(entries[0].Val) != "v" {
		t.Fatalf("old log damaged by failed compact: %+v", entries)
	}
}

// --- faultinject seams (error mode) ---------------------------------------

func installPlan(t *testing.T, spec string, lethal bool) {
	t.Helper()
	p, err := faultinject.ParsePlan(spec, 1)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	p.SetLethal(lethal)
	faultinject.Install(p)
	t.Cleanup(faultinject.Clear)
}

func TestSeamWriteError(t *testing.T) {
	path := tempLog(t)
	s, _, _ := mustOpen(t, path, Options{Name: "seamtest"})
	s.Append("before", []byte("b"))

	installPlan(t, "wal:write=seamtest#1", false)
	err := s.Append("failed", []byte("f"))
	var fault *faultinject.Fault
	if !errors.As(err, &fault) || fault.Point != faultinject.WALWrite {
		t.Fatalf("err = %v, want WALWrite fault", err)
	}
	// The fire count is spent: the next append goes through.
	if err := s.Append("after", []byte("a")); err != nil {
		t.Fatalf("append after seam: %v", err)
	}
	s.Close()
	_, entries, st := mustOpen(t, path, Options{})
	got := entryMap(entries)
	if st.Dirty() || len(got) != 2 || got["failed"] != nil {
		t.Fatalf("stats=%+v entries=%+v", st, entries)
	}
}

func TestSeamFsyncError(t *testing.T) {
	path := tempLog(t)
	s, _, _ := mustOpen(t, path, Options{Name: "seamtest"})
	s.Append("a", []byte("1"))
	installPlan(t, "wal:fsync=seamtest#1", false)
	if err := s.Append("b", []byte("2")); !faultinject.Injected(err) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if err := s.Append("c", []byte("3")); err != nil {
		t.Fatalf("append after seam: %v", err)
	}
	checkUnsyncedRolledBack(t, s, path)
}

func TestSeamRenameError(t *testing.T) {
	path := tempLog(t)
	s, _, _ := mustOpen(t, path, Options{Name: "seamtest"})
	s.Append("k", []byte("v"))
	installPlan(t, "wal:rename=seamtest", false)
	if err := s.Compact([]Entry{{Key: "k", Val: []byte("v")}}); !faultinject.Injected(err) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	faultinject.Clear()
	s.Close()
	_, entries, _ := mustOpen(t, path, Options{})
	if len(entries) != 1 || string(entries[0].Val) != "v" {
		t.Fatalf("old log lost: %+v", entries)
	}
}

func TestSeamReplayErrorDropsTail(t *testing.T) {
	path := tempLog(t)
	s, _, _ := mustOpen(t, path, Options{Name: "seamtest"})
	for i := 0; i < 10; i++ {
		s.Append(fmt.Sprintf("k%d", i), []byte("v"))
	}
	s.Close()

	installPlan(t, "wal:replay=seamtest", false)
	s2, entries, st, err := Open(path, Options{Name: "seamtest"})
	if err != nil {
		t.Fatalf("Open under replay fault: %v", err)
	}
	defer s2.Close()
	// Half the log was dropped, but the store opened and what survived
	// is exact.
	if len(entries) >= 10 || !st.TornTail {
		t.Fatalf("replay fault: entries=%d stats=%+v", len(entries), st)
	}
	for _, e := range entries {
		if string(e.Val) != "v" {
			t.Fatalf("corrupt value served: %+v", e)
		}
	}
	faultinject.Clear()
	// After the truncation the log is clean again.
	s2.Close()
	_, entries2, st2 := mustOpen(t, path, Options{})
	if st2.Dirty() || len(entries2) != len(entries) {
		t.Fatalf("reopen after replay-fault truncation: stats=%+v", st2)
	}
}
