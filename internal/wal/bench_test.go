package wal

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// noSyncFS is the OS filesystem with a Sync that does nothing, so the
// benchmarks time the CPU path and not the disk's fsync latency (the
// serve daemon syncs every append and pays that latency deliberately).
type noSyncFS struct{ OSFS }

func (noSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

// BenchmarkWALAppend measures the append path without fsync: the CPU
// cost of encoding, checksumming, and writing one record.
func BenchmarkWALAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	s, _, _, err := Open(path, Options{FS: noSyncFS{}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 1024)
	b.SetBytes(int64(RecordOverhead + 8 + len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(fmt.Sprintf("k%07d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures Open over a 10k-entry, 1 KiB-value log:
// the cost a restarted daemon pays before it can serve warm.
func BenchmarkWALReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	s, _, _, err := Open(path, Options{FS: noSyncFS{}})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 1024)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := s.Append(fmt.Sprintf("k%07d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n * (RecordOverhead + 8 + len(val))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, entries, _, err := Open(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(entries) != n {
			b.Fatalf("entries = %d, want %d", len(entries), n)
		}
		s.Close()
	}
}
