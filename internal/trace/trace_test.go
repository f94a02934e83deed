package trace

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"delinq/internal/asm"
	"delinq/internal/cache"
	"delinq/internal/minic"
	"delinq/internal/vm"
)

func TestRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{PC: 0x400000, Addr: 0x10000000, Store: false},
		{PC: 0x400004, Addr: 0x10000004, Store: true},
		{PC: 0x400000, Addr: 0x7fffeffc, Store: false}, // backwards pc delta
		{PC: 0x400100, Addr: 0, Store: true},
	}
	for _, r := range recs {
		if err := w.Add(r.PC, r.Addr, r.Store); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != int64(len(recs)) {
		t.Errorf("Records = %d", w.Records())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

// Property: arbitrary record sequences round-trip exactly.
func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var recs []Record
		for i := 0; i < int(n); i++ {
			r := Record{
				PC:    uint32(rng.Int63()),
				Addr:  uint32(rng.Int63()),
				Store: rng.Intn(2) == 0,
			}
			recs = append(recs, r)
			if err := w.Add(r.PC, r.Addr, r.Store); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		rd := NewReader(&buf)
		for _, want := range recs {
			got, err := rd.Next()
			if err != nil || got != want {
				return false
			}
		}
		_, err := rd.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Add(0x400000, 0x12345678, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	r := NewReader(bytes.NewReader(b[:len(b)-1]))
	if _, err := r.Next(); err == nil {
		t.Error("truncated record decoded")
	}
}

const traceProg = `
int grid[8192];
struct N { int v; struct N *next; };
int main() {
	int i;
	struct N *head = 0;
	for (i = 0; i < 500; i++) {
		struct N *n = malloc(sizeof(struct N));
		n->v = i;
		n->next = head;
		head = n;
	}
	int s = 0;
	for (i = 0; i < 8192; i++) grid[i] = i;
	for (i = 0; i < 8192; i++) s += grid[i];
	struct N *p = head;
	while (p) { s += p->v; p = p->next; }
	return s & 255;
}
`

// TestReplayMatchesLiveCache is the package's reason to exist: replaying
// a collected trace through a cache must reproduce, per load PC, exactly
// the misses a live-attached cache observed.
func TestReplayMatchesLiveCache(t *testing.T) {
	asmText, err := minic.Compile(traceProg, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	live, err := cache.New(cache.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.RunContext(context.Background(), img, vm.Options{
		Caches: []*cache.Cache{live},
		OnAccess: func(pc, addr uint32, store bool) {
			if err := tw.Add(pc, addr, store); err != nil {
				t.Fatal(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Records() != res.DataAccesses {
		t.Fatalf("trace has %d records, vm saw %d accesses", tw.Records(), res.DataAccesses)
	}

	stats, err := Replay(bytes.NewReader(buf.Bytes()), cache.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	st := stats[0]
	if st.Records != res.DataAccesses {
		t.Errorf("replayed %d records", st.Records)
	}
	if st.Cache.LoadMisses != live.Stats().LoadMisses {
		t.Errorf("replay load misses %d != live %d",
			st.Cache.LoadMisses, live.Stats().LoadMisses)
	}
	// Per-PC attribution must match exactly.
	var totalReplay int64
	for pc, m := range st.LoadMisses {
		totalReplay += m
		if live := res.MissesAt(0, pc); live != m {
			t.Errorf("pc %#x: replay %d misses, live %d", pc, m, live)
		}
	}
	if uint64(totalReplay) != live.Stats().LoadMisses {
		t.Errorf("per-pc sum %d != total %d", totalReplay, live.Stats().LoadMisses)
	}
}

// TestReplayMultipleGeometries replays one trace through a size sweep.
func TestReplayMultipleGeometries(t *testing.T) {
	asmText, err := minic.Compile(traceProg, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	if _, err := vm.RunContext(context.Background(), img, vm.Options{
		OnAccess: func(pc, addr uint32, store bool) { tw.Add(pc, addr, store) },
	}); err != nil {
		t.Fatal(err)
	}
	tw.Flush()
	stats, err := Replay(bytes.NewReader(buf.Bytes()),
		cache.Config{SizeBytes: 1024, Assoc: 1, BlockBytes: 32},
		cache.Config{SizeBytes: 64 * 1024, Assoc: 8, BlockBytes: 32},
	)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Cache.Misses <= stats[1].Cache.Misses {
		t.Errorf("1KB misses (%d) should exceed 64KB (%d)",
			stats[0].Cache.Misses, stats[1].Cache.Misses)
	}
}

func TestReplayBadGeometry(t *testing.T) {
	if _, err := Replay(bytes.NewReader(nil), cache.Config{SizeBytes: 3}); err == nil {
		t.Error("invalid geometry accepted")
	}
}

// TestCompression: the delta encoding should beat 8 bytes/record on
// loopy traces.
func TestCompression(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10000; i++ {
		w.Add(0x400100+uint32(i%5)*4, 0x10000000+uint32(i*4), false)
	}
	w.Flush()
	perRec := float64(buf.Len()) / 10000
	if perRec > 6.5 {
		t.Errorf("encoding too fat: %.1f bytes/record", perRec)
	}
}

// TestReaderArbitraryBytes feeds malformed streams to the decoder: each
// must end in a clean error or EOF, never a panic or a bogus record
// after an error.
func TestReaderArbitraryBytes(t *testing.T) {
	overflow := bytes.Repeat([]byte{0xff}, 11) // varint wider than 64 bits
	cases := [][]byte{
		{},
		{0x80},       // unterminated varint
		{0x01},       // head without address
		{0x01, 0x80}, // address varint cut short
		overflow,
		append([]byte{0x01, 0x01}, overflow...),
		{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for i, b := range cases {
		r := NewReader(bytes.NewReader(b))
		for {
			_, err := r.Next()
			if err != nil {
				break // io.EOF or a decode error both fine; no panic
			}
		}
		_ = i
	}
}

// TestWriterDeterministic: identical access sequences must encode to
// identical bytes, so traces can be diffed and cached by content.
func TestWriterDeterministic(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		pcs := []uint32{0x400000, 0x400004, 0x400000, 0x400100, 0x3ff000}
		for i, pc := range pcs {
			if err := w.Add(pc, 0x10000000+uint32(i*64), i%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatal("same accesses, different encodings")
	}
}
