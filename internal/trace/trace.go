// Package trace implements the off-line memory-profiling path the paper
// describes in Section 3: "instrument the code such that a memory trace
// is produced even as the application executes ... it is necessary to
// run the output memory trace through a cache simulator in order to
// obtain the cache miss data". Traces are written in a compact
// varint-delta encoding and can be replayed through any number of cache
// models, yielding exactly the same per-load miss attribution as a
// live-attached cache.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"delinq/internal/cache"
	"delinq/internal/faultinject"
)

// Record is one data access.
type Record struct {
	PC    uint32
	Addr  uint32
	Store bool
}

// Writer streams records. The encoding stores the pc as a zig-zag delta
// from the previous record's pc (loops produce long runs of tiny deltas)
// and the address verbatim as a varint, with the store flag folded into
// the delta's low bit.
type Writer struct {
	w      *bufio.Writer
	lastPC uint32
	n      int64
	buf    [2 * binary.MaxVarintLen64]byte
}

// NewWriter wraps w for trace emission.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Add appends one record.
func (tw *Writer) Add(pc, addr uint32, store bool) error {
	delta := int64(pc) - int64(tw.lastPC)
	tw.lastPC = pc
	// zig-zag the delta, then make room for the store bit.
	zz := uint64((delta << 1) ^ (delta >> 63))
	head := zz << 1
	if store {
		head |= 1
	}
	n := binary.PutUvarint(tw.buf[:], head)
	n += binary.PutUvarint(tw.buf[n:], uint64(addr))
	if _, err := tw.w.Write(tw.buf[:n]); err != nil {
		return err
	}
	tw.n++
	return nil
}

// Records returns how many accesses were written.
func (tw *Writer) Records() int64 { return tw.n }

// Flush drains buffered output.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader decodes a trace stream.
type Reader struct {
	r      *bufio.Reader
	lastPC uint32
}

// NewReader wraps r for decoding.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next record, or io.EOF.
func (tr *Reader) Next() (Record, error) {
	head, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return Record{}, err
	}
	addr, err := binary.ReadUvarint(tr.r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	if addr > math.MaxUint32 {
		return Record{}, fmt.Errorf("trace: address %#x exceeds 32 bits", addr)
	}
	store := head&1 == 1
	zz := head >> 1
	delta := int64(zz>>1) ^ -int64(zz&1)
	pc := int64(tr.lastPC) + delta
	if pc < 0 || pc > math.MaxUint32 {
		return Record{}, fmt.Errorf("trace: pc delta %d leaves the 32-bit range", delta)
	}
	tr.lastPC = uint32(pc)
	return Record{PC: uint32(pc), Addr: uint32(addr), Store: store}, nil
}

// ReplayStats is the outcome of replaying a trace through one cache.
type ReplayStats struct {
	Records    int64
	LoadMisses map[uint32]int64 // per-pc misses, loads only
	Cache      cache.Stats
}

// Replay feeds the trace through fresh caches of the given geometries
// and returns per-geometry statistics — the off-line half of memory
// profiling.
func Replay(r io.Reader, geoms ...cache.Config) ([]ReplayStats, error) {
	r = faultinject.Reader(faultinject.TraceFlip, "replay", r)
	caches := make([]*cache.Cache, len(geoms))
	stats := make([]ReplayStats, len(geoms))
	for i, g := range geoms {
		c, err := cache.New(g)
		if err != nil {
			return nil, err
		}
		caches[i] = c
		stats[i].LoadMisses = map[uint32]int64{}
	}
	group, err := cache.NewGroup(caches)
	if err != nil {
		return nil, err
	}
	tr := NewReader(r)
	var n int64
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		n++
		missed := group.Access(rec.Addr, rec.Store)
		if !rec.Store {
			for ; missed != 0; missed &= missed - 1 {
				stats[bits.TrailingZeros64(missed)].LoadMisses[rec.PC]++
			}
		}
	}
	group.Flush()
	for i, c := range caches {
		stats[i].Records = n
		stats[i].Cache = c.Stats()
	}
	return stats, nil
}
