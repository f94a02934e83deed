package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mustNew builds a cache from a geometry the test knows is valid.
func mustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		Training, Baseline,
		{SizeBytes: 16 * 1024, Assoc: 2, BlockBytes: 32},
		{SizeBytes: 64 * 1024, Assoc: 8, BlockBytes: 64},
		{SizeBytes: 1024, Assoc: 1, BlockBytes: 16},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", c, err)
		}
	}
	bad := []Config{
		{},
		{SizeBytes: 8192, Assoc: 4, BlockBytes: 24},
		{SizeBytes: 8192, Assoc: 3, BlockBytes: 32}, // 85.33 sets
		{SizeBytes: -1, Assoc: 1, BlockBytes: 32},
		{SizeBytes: 8192 + 32, Assoc: 1, BlockBytes: 32},
		{SizeBytes: 4, Assoc: 4, BlockBytes: 1}, // tag+1 would overflow
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%v) succeeded; want error", c)
		}
	}
}

// TestNewRejectsInvalidGeometry is the regression for the removed
// MustNew: an invalid geometry must come back as an error from New,
// never as a panic anywhere in the pipeline.
func TestNewRejectsInvalidGeometry(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: -1, Assoc: 1, BlockBytes: 32},
		{SizeBytes: 8192, Assoc: 4, BlockBytes: 24},
		{SizeBytes: 8192, Assoc: 3, BlockBytes: 32},
		{SizeBytes: 8192 + 32, Assoc: 1, BlockBytes: 32},
		{SizeBytes: 1, Assoc: 1, BlockBytes: 1},
	}
	for _, cfg := range bad {
		c, err := New(cfg)
		if err == nil || c != nil {
			t.Errorf("New(%v) = %v, %v; want nil, error", cfg, c, err)
		}
	}
	if _, err := New(Baseline); err != nil {
		t.Errorf("New(Baseline) = %v", err)
	}
}

func TestConfigDerived(t *testing.T) {
	if Training.Sets() != 256 {
		t.Errorf("Training sets = %d", Training.Sets())
	}
	if Baseline.Sets() != 64 {
		t.Errorf("Baseline sets = %d", Baseline.Sets())
	}
	if s := Baseline.String(); s != "8KB/4-way/32B" {
		t.Errorf("String = %q", s)
	}
}

// TestConfigStringSubKB: a size that is not a whole number of kilobytes
// prints in bytes, so no geometry is named "0KB".
func TestConfigStringSubKB(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{SizeBytes: 128, Assoc: 1, BlockBytes: 32}, "128B/1-way/32B"},
		{Config{SizeBytes: 1536, Assoc: 3, BlockBytes: 16}, "1536B/3-way/16B"},
		{Config{SizeBytes: 64 * 1024, Assoc: 8, BlockBytes: 64, Repl: FIFO}, "64KB/8-way/64B/FIFO"},
		{Config{SizeBytes: 1024, Assoc: 1, BlockBytes: 16}, "1KB/1-way/16B"},
	} {
		if got := tc.cfg.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(Baseline)
	if c.Access(0x1000, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Error("second access missed")
	}
	if !c.Access(0x101c, false) {
		t.Error("same-block access missed")
	}
	if c.Access(0x1020, false) {
		t.Error("next block hit on cold access")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 || st.LoadMisses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped 2-set cache, 16B blocks: addresses 0 and 32 collide.
	c := mustNew(Config{SizeBytes: 32, Assoc: 1, BlockBytes: 16})
	c.Access(0, false)
	c.Access(32, false) // evicts 0
	if c.Access(0, false) {
		t.Error("evicted line still present")
	}
}

func TestLRUOrdering(t *testing.T) {
	// One set, 2-way: A, B, touch A, insert C -> B evicted, A retained.
	c := mustNew(Config{SizeBytes: 32, Assoc: 2, BlockBytes: 16})
	a, b, d := uint32(0), uint32(32), uint32(64)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // refresh A
	c.Access(d, false) // must evict B
	if !c.Access(a, false) {
		t.Error("A evicted despite being MRU")
	}
	if c.Access(b, false) {
		t.Error("B retained despite being LRU")
	}
}

func TestStoreMissesCountedSeparately(t *testing.T) {
	c := mustNew(Baseline)
	c.Access(0x2000, true)
	c.Access(0x3000, false)
	st := c.Stats()
	if st.StoreMisses != 1 || st.LoadMisses != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Write-allocate: subsequent load of the stored block hits.
	if !c.Access(0x2000, false) {
		t.Error("write-allocate failed")
	}
}

func TestReset(t *testing.T) {
	c := mustNew(Baseline)
	c.Access(0x4000, false)
	c.Reset()
	if st := c.Stats(); st.Accesses != 0 || st.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	if c.Access(0x4000, false) {
		t.Error("line survived reset")
	}
}

func TestMissRate(t *testing.T) {
	if (Stats{}).MissRate() != 0 {
		t.Error("empty MissRate != 0")
	}
	s := Stats{Accesses: 8, Misses: 2}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
}

// Property: a working set no larger than one set's capacity never misses
// after the first touch of each block (LRU never evicts a live block).
func TestQuickWorkingSetFits(t *testing.T) {
	cfg := Config{SizeBytes: 1024, Assoc: 4, BlockBytes: 32}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := mustNew(cfg)
		// 4 blocks mapping to the same set (set 0 of 8).
		blocks := make([]uint32, 4)
		for i := range blocks {
			blocks[i] = uint32(i) * uint32(cfg.BlockBytes) * uint32(cfg.Sets())
		}
		seen := map[uint32]bool{}
		for i := 0; i < 200; i++ {
			b := blocks[rng.Intn(len(blocks))]
			hit := c.Access(b, false)
			if seen[b] && !hit {
				return false
			}
			seen[b] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: miss count is monotonically non-increasing in associativity
// for a fixed-size cache under any access sequence? Not in general (Belady
// anomalies exist for some policies), but LRU is a stack algorithm in
// *capacity*: for fixed block count per set, doubling ways while halving
// sets may reshuffle. We instead check the stack property that a larger
// fully-associative LRU cache never misses more than a smaller one.
func TestQuickLRUStackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small := mustNew(Config{SizeBytes: 256, Assoc: 8, BlockBytes: 32})   // 1 set
		large := mustNew(Config{SizeBytes: 1024, Assoc: 32, BlockBytes: 32}) // 1 set
		for i := 0; i < 500; i++ {
			addr := uint32(rng.Intn(64)) * 32
			small.Access(addr, false)
			large.Access(addr, false)
		}
		return large.Stats().Misses <= small.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFIFOReplacement(t *testing.T) {
	// One set, 2-way. FIFO: A, B, touch A, insert C evicts A (oldest
	// fill); under LRU the same sequence evicts B.
	cfg := Config{SizeBytes: 32, Assoc: 2, BlockBytes: 16, Repl: FIFO}
	c := mustNew(cfg)
	a, b, d := uint32(0), uint32(32), uint32(64)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // reuse does not refresh under FIFO
	c.Access(d, false) // evicts A
	// Check the survivor first: probing the victim would refill it.
	if !c.Access(b, false) {
		t.Error("FIFO evicted the younger line")
	}
	if c.Access(a, false) {
		t.Error("FIFO retained the oldest line")
	}
	if cfg.String() != "32B/2-way/16B/FIFO" {
		t.Errorf("String = %q", cfg.String())
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Error("policy names wrong")
	}
}

// TestAgainstReferenceModel drives the production cache and the
// reference model with the same pseudo-random access stream across
// geometries (including direct-mapped) and both policies, demanding an
// identical hit/miss sequence and identical counters.
func TestAgainstReferenceModel(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 1024, Assoc: 1, BlockBytes: 32},
		{SizeBytes: 1024, Assoc: 2, BlockBytes: 32},
		{SizeBytes: 1024, Assoc: 4, BlockBytes: 16},
		{SizeBytes: 2048, Assoc: 8, BlockBytes: 64},
		{SizeBytes: 1024, Assoc: 4, BlockBytes: 16, Repl: FIFO},
		{SizeBytes: 1024, Assoc: 1, BlockBytes: 32, Repl: FIFO},
	}
	for _, cfg := range geoms {
		rng := rand.New(rand.NewSource(7))
		c := mustNew(cfg)
		r := NewRef(cfg)
		for i := 0; i < 20000; i++ {
			// A mix of hot working set and cold sweeps.
			var addr uint32
			switch rng.Intn(3) {
			case 0:
				addr = uint32(rng.Intn(16)) * 32
			case 1:
				addr = uint32(rng.Intn(4096))
			default:
				addr = uint32(i * 8)
			}
			store := rng.Intn(4) == 0
			got := c.Access(addr, store)
			want := r.Access(addr, store)
			if got != want {
				t.Fatalf("%v: access %d addr %#x: got hit=%v, reference %v",
					cfg, i, addr, got, want)
			}
		}
		st := c.Stats()
		if st != r.Stats() || st.Accesses != 20000 {
			t.Errorf("%v: stats %+v, reference %+v", cfg, st, r.Stats())
		}
		if st.LoadMisses+st.StoreMisses != st.Misses {
			t.Errorf("%v: load+store misses != misses: %+v", cfg, st)
		}
	}
}

// TestDirectMappedFastPath pins direct-mapped semantics, where way 0 is
// the whole set: conflict eviction and write-allocate.
func TestDirectMappedFastPath(t *testing.T) {
	c := mustNew(Config{SizeBytes: 1024, Assoc: 1, BlockBytes: 32})
	sets := uint32(32)
	a, b := uint32(0), 32*sets // same set, different tags
	if c.Access(a, false) {
		t.Error("cold hit")
	}
	if !c.Access(a, false) {
		t.Error("warm miss")
	}
	if c.Access(b, true) {
		t.Error("conflicting tag hit")
	}
	if c.Access(a, false) {
		t.Error("evicted line still present")
	}
	if !c.Access(a, false) {
		t.Error("refilled line missing")
	}
	st := c.Stats()
	if st.Accesses != 5 || st.Misses != 3 || st.StoreMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestNewGroupLimit: a group reports misses as bits of a uint64, so it
// takes at most MaxGroup caches, and one cache may appear repeatedly.
func TestNewGroupLimit(t *testing.T) {
	c := mustNew(Baseline)
	caches := make([]*Cache, MaxGroup+1)
	for i := range caches {
		caches[i] = c
	}
	if _, err := NewGroup(caches); err == nil {
		t.Errorf("NewGroup accepted %d caches", len(caches))
	}
	g, err := NewGroup(caches[:MaxGroup])
	if err != nil {
		t.Fatal(err)
	}
	if missed := g.Access(0x1000, false); missed != 1 {
		t.Errorf("missed = %#x, want only the first feed of the one cache", missed)
	}
	g.Flush()
	if st := c.Stats(); st.Accesses != MaxGroup || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEmptyGroup: a group of no caches allocates one filter entry,
// reports no misses, and has nothing to flush.
func TestEmptyGroup(t *testing.T) {
	var g *Group
	if allocs := testing.AllocsPerRun(10, func() { g, _ = NewGroup(nil) }); allocs > 2 {
		t.Errorf("NewGroup(nil) made %v allocations", allocs)
	}
	if len(g.last) != 1 {
		t.Errorf("empty group has %d filter entries, want 1", len(g.last))
	}
	for _, addr := range []uint32{0, 0x1000, 0x1000, 0xffffffff} {
		if missed := g.Access(addr, false); missed != 0 {
			t.Errorf("Access(%#x) = %#x", addr, missed)
		}
	}
	g.Flush()
	if g.skipped != 0 {
		t.Errorf("Flush left %d skips", g.skipped)
	}
}

// TestGroupFilterSets pins the filter-set rule: address bits [lo, hi),
// lo the widest block offset and hi the narrowest offset plus set
// index, capped at lo+12, and a single set when no bit is common.
func TestGroupFilterSets(t *testing.T) {
	cases := []struct {
		geoms []Config
		lo    uint
		sets  int
	}{
		{[]Config{Baseline}, 5, 64}, // a lone cache filters on its own sets
		{[]Config{Baseline, {SizeBytes: 16 * 1024, Assoc: 4, BlockBytes: 64}}, 6, 32},
		{[]Config{{SizeBytes: 1 << 24, Assoc: 1, BlockBytes: 16}}, 4, 4096},
		// Index bits [6, 8) and [2, 5) share none.
		{[]Config{{SizeBytes: 512, Assoc: 2, BlockBytes: 64}, {SizeBytes: 64, Assoc: 2, BlockBytes: 4}}, 6, 1},
		{[]Config{{SizeBytes: 64, Assoc: 2, BlockBytes: 32}}, 5, 1}, // one set
	}
	for _, tc := range cases {
		var caches []*Cache
		for _, cfg := range tc.geoms {
			caches = append(caches, mustNew(cfg))
		}
		g, err := NewGroup(caches)
		if err != nil {
			t.Fatal(err)
		}
		if g.lo != tc.lo || len(g.last) != tc.sets || int(g.mask)+1 != tc.sets {
			t.Errorf("%v: filter bits from %d, %d sets (mask %#x), want from %d, %d sets",
				tc.geoms, g.lo, len(g.last), g.mask, tc.lo, tc.sets)
		}
	}
}

// TestGroupSkipsPerFilterSet: an access that repeats the previous block
// of its filter set is skipped even when another filter set was touched
// in between, and the flushed Stats still match the reference model.
func TestGroupSkipsPerFilterSet(t *testing.T) {
	cfgs := []Config{Baseline, {SizeBytes: 16 * 1024, Assoc: 4, BlockBytes: 64}}
	var caches []*Cache
	var refs []*Ref
	for _, cfg := range cfgs {
		caches, refs = append(caches, mustNew(cfg)), append(refs, NewRef(cfg))
	}
	g, err := NewGroup(caches)
	if err != nil {
		t.Fatal(err)
	}
	// Filter bits [6, 11): x and y differ in bit 6, and x+0x800 is in
	// x's filter set but another block.
	x, y := uint32(0x1000), uint32(0x1040)
	stream := []uint32{x, y, x + 4, y + 8, x + 0x800, y + 12, x, x + 16, y}
	wantSkipped := []uint64{0, 0, 1, 2, 2, 3, 3, 4, 5}
	for n, addr := range stream {
		missed := g.Access(addr, false)
		for i, ref := range refs {
			if hit := ref.Access(addr, false); hit != (missed>>i&1 == 0) {
				t.Fatalf("%v: access %d to %#x: group hit=%v, reference %v", cfgs[i], n, addr, !hit, hit)
			}
		}
		if g.skipped != wantSkipped[n] {
			t.Fatalf("after access %d to %#x: %d skipped, want %d", n, addr, g.skipped, wantSkipped[n])
		}
	}
	g.Flush()
	for i, ref := range refs {
		if got := caches[i].Stats(); got != ref.Stats() {
			t.Errorf("%v: Stats %+v, reference %+v", cfgs[i], got, ref.Stats())
		}
	}
}
