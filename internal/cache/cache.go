// Package cache models a set-associative, write-allocate data cache with
// true-LRU replacement — the L1 D-cache of the SimpleScalar stand-in.
// Geometry (total size, associativity, block size) is fully parameterised,
// matching the sweeps in the paper's Tables 8 and 9.
package cache

import "fmt"

// Policy selects the replacement policy. The paper's experiments use
// LRU throughout; FIFO exists for the replacement-policy ablation.
type Policy int

const (
	// LRU evicts the least-recently-used way (the paper's policy).
	LRU Policy = iota
	// FIFO evicts the oldest-filled way regardless of reuse.
	FIFO
)

// String names the policy.
func (p Policy) String() string {
	if p == FIFO {
		return "FIFO"
	}
	return "LRU"
}

// Config describes a cache geometry.
type Config struct {
	SizeBytes  int // total capacity
	Assoc      int // ways per set
	BlockBytes int // line size
	// Repl selects the replacement policy (zero value: LRU).
	Repl Policy
}

// String renders the geometry, e.g. "8KB/4-way/32B", or "128B/1-way/32B"
// for a size that is not a whole number of kilobytes.
func (c Config) String() string {
	size := fmt.Sprintf("%dKB", c.SizeBytes/1024)
	if c.SizeBytes%1024 != 0 {
		size = fmt.Sprintf("%dB", c.SizeBytes)
	}
	s := fmt.Sprintf("%s/%d-way/%dB", size, c.Assoc, c.BlockBytes)
	if c.Repl != LRU {
		s += "/" + c.Repl.String()
	}
	return s
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Assoc * c.BlockBytes) }

// Validate checks that the geometry is realisable: positive power-of-two
// block size and set count, capacity divisible by assoc×block, and more
// than one byte per way, so that a tag is narrower than an address.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockBytes)
	}
	if c.SizeBytes%(c.Assoc*c.BlockBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by assoc*block", c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if sets*c.BlockBytes == 1 {
		return fmt.Errorf("cache: one set of 1-byte blocks makes every address bit a tag bit")
	}
	return nil
}

// The paper's two reference geometries.
var (
	// Training is the learning-phase cache: 256 sets, 4-way, 32-byte
	// blocks (Section 6).
	Training = Config{SizeBytes: 256 * 4 * 32, Assoc: 4, BlockBytes: 32}
	// Baseline is the 8 KB 4-way cache used for the summary tables.
	Baseline = Config{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32}
)

// Cache is one simulated data cache. The ways of all sets live in one
// contiguous slice (set s occupies tags[s*assoc : (s+1)*assoc]) so an
// access costs a single bounds-checked slice into flat memory rather
// than a pointer chase through a per-set slice header: this is the
// hottest data structure in the whole experiment pipeline.
//
// Each set is kept in recency order, most recent first (in fill order,
// newest first, under FIFO), so the set is its own LRU stack and no
// per-way stamps are needed: the victim is always the last way. A way
// holds its line's tag plus one, with zero meaning invalid, which folds
// the valid bit into the tag compare. The +1 cannot overflow because
// Validate leaves at least one address bit to the set index or block
// offset, so a tag never reaches 1<<32 - 1.
type Cache struct {
	cfg      Config
	tags     []uint32
	assoc    int
	lru      bool
	setShift uint
	tagShift uint
	setMask  uint32

	accesses  uint64
	misses    uint64
	loadMiss  uint64
	storeMiss uint64
}

// New builds a cache; the geometry must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		tags:     make([]uint32, nsets*cfg.Assoc),
		assoc:    cfg.Assoc,
		lru:      cfg.Repl == LRU,
		setShift: uint(log2(cfg.BlockBytes)),
		setMask:  uint32(nsets - 1),
	}
	c.tagShift = c.setShift + uint(log2(nsets))
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Access simulates one data access and reports whether it hit.
// Write misses allocate (write-allocate policy).
func (c *Cache) Access(addr uint32, isStore bool) bool {
	c.accesses++
	base, tag1 := c.locate(addr)
	return c.tags[base] == tag1 || c.lookup(base, tag1, isStore)
}

// locate returns the index of way 0 of addr's set and addr's tag word.
func (c *Cache) locate(addr uint32) (base int, tag1 uint32) {
	return int((addr>>c.setShift)&c.setMask) * c.assoc, addr>>c.tagShift + 1
}

// lookup finishes an access whose tag is not in way 0 of its set. A hit
// on way k moves the line to way 0 under LRU (FIFO leaves the set
// alone); a miss shifts the set down one way, dropping the last way (the
// LRU line, the oldest fill, or an invalid way while the set fills), and
// inserts the new line at way 0. It stays out of line so that callers
// inline only the way-0 probe.
//
//go:noinline
func (c *Cache) lookup(base int, tag1 uint32, isStore bool) bool {
	set := c.tags[base : base+c.assoc]
	for k := 1; k < len(set); k++ {
		if set[k] == tag1 {
			if c.lru {
				copy(set[1:k+1], set[:k])
				set[0] = tag1
			}
			return true
		}
	}
	copy(set[1:], set)
	set[0] = tag1
	c.misses++
	if isStore {
		c.storeMiss++
	} else {
		c.loadMiss++
	}
	return false
}

// Reset invalidates every line and clears counters.
func (c *Cache) Reset() {
	clear(c.tags)
	c.accesses, c.misses, c.loadMiss, c.storeMiss = 0, 0, 0, 0
}

// MaxGroup is the most caches one Group can feed: Access reports the
// caches that missed as bits of a uint64.
const MaxGroup = 64

// Group feeds one access stream to several caches, in order, as if each
// access were passed to every cache's Access. It is built once per
// stream and assumes nothing else accesses or resets its caches while
// the stream runs; the caches may start warm. Call Flush when the
// stream ends, before reading any cache's Stats.
//
// The group skips an access that repeats the previous block of its
// filter set. Blocks are taken at the group's smallest block size. The
// filter set is address bits [lo, hi): lo is the largest log2(block) in
// the group and hi the smallest log2(block)+log2(sets), capped at
// lo+maxFilterBits. When lo >= hi there is one filter set, and the rule
// is "repeats the previous access's block".
//
// A skip is exact. The filter bits are set-index bits of every cache,
// so every access since the previous one to this filter set went to
// another set in every cache, and the set holding this block is
// untouched since then. That access left the line holding the block
// resident in every cache, because every miss allocates, and since
// every block size is a power of two each cache's line covers the
// smaller block. Under LRU it left the line at way 0, where a hit
// changes nothing, and under FIFO a hit never changes the set. So the
// access hits everywhere and changes nothing but the access counts.
//
// A skip touches no cache: the group counts it, and Flush adds the
// count to each cache's accesses. Skip is the rule and inlines, so a
// caller can test it without a call and pass only what it declines to
// Access.
type Group struct {
	caches  []*Cache
	shift   uint     // log2 of the group's smallest block size
	lo      uint     // lowest filter-set bit
	mask    uint32   // filter sets - 1
	last    []uint64 // per filter set, addr>>shift of its previous access, or noBlock
	skipped uint64
}

// maxFilterBits caps a group's filter at 4096 sets. Any subset of the
// bits every cache indexes its sets by keeps the skip exact.
const maxFilterBits = 12

// noBlock marks a filter set with no previous access: addr>>shift is
// below 1<<32 for every address, so it matches none.
const noBlock = 1 << 32

// NewGroup builds a group over caches, which Access feeds in slice
// order; the same cache may appear more than once.
func NewGroup(caches []*Cache) (*Group, error) {
	if len(caches) > MaxGroup {
		return nil, fmt.Errorf("cache: group of %d caches exceeds %d", len(caches), MaxGroup)
	}
	g := &Group{caches: caches, shift: 31}
	hi := uint(32)
	for _, c := range caches {
		g.shift = min(g.shift, c.setShift)
		g.lo = max(g.lo, c.setShift)
		hi = min(hi, c.tagShift)
	}
	hi = min(hi, g.lo+maxFilterBits)
	if len(caches) == 0 || hi < g.lo {
		hi = g.lo
	}
	g.mask = 1<<(hi-g.lo) - 1
	g.last = make([]uint64, 1<<(hi-g.lo))
	for i := range g.last {
		g.last[i] = noBlock
	}
	return g, nil
}

// Skip reports whether the group skips an access to addr, that is,
// whether addr repeats the previous block of its filter set, and
// counts the skip when it does. A skipped access is complete: the
// caller must not pass it to Access as well. Declining an access
// changes nothing, so the caller passes it to Access, which tests it
// again.
func (g *Group) Skip(addr uint32) bool {
	if g.last[addr>>g.lo&g.mask] != uint64(addr>>g.shift) {
		return false
	}
	g.skipped++
	return true
}

// Access feeds one access to every cache of the group and returns a
// mask with bit i set when caches[i] missed.
func (g *Group) Access(addr uint32, isStore bool) (missed uint64) {
	if g.Skip(addr) {
		return 0
	}
	g.last[addr>>g.lo&g.mask] = uint64(addr >> g.shift)
	for i, c := range g.caches {
		c.accesses++
		base, tag1 := c.locate(addr)
		if c.tags[base] != tag1 && !c.lookup(base, tag1, isStore) {
			missed |= 1 << i
		}
	}
	return missed
}

// Flush adds the accesses the group skipped to each cache's access
// count, once per time the cache appears in the group.
func (g *Group) Flush() {
	for _, c := range g.caches {
		c.accesses += g.skipped
	}
	g.skipped = 0
}

// Stats summarises activity since the last Reset.
type Stats struct {
	Accesses    uint64
	Misses      uint64
	LoadMisses  uint64
	StoreMisses uint64
}

// Stats returns the activity counters.
func (c *Cache) Stats() Stats {
	return Stats{Accesses: c.accesses, Misses: c.misses, LoadMisses: c.loadMiss, StoreMisses: c.storeMiss}
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
