package cache

// Ref is an obviously-correct reference model of Cache, exported for the
// oracle tests in package cache_test. Each set is a list of resident
// lines in no particular order, each with its tag and last-touch stamp
// (fill stamp under FIFO); a full set evicts the line with the smallest
// stamp. Stamps are unique (the clock is strictly increasing), so the
// victim is unambiguous. It shares no code or data layout with Cache:
// no recency order, no tag+1 encoding, and plain division for the set
// and tag.
type Ref struct {
	cfg   Config
	sets  [][]refLine
	clock uint64
	stats Stats
}

type refLine struct {
	tag   uint32
	stamp uint64
}

// NewRef builds a reference model; cfg must validate.
func NewRef(cfg Config) *Ref {
	return &Ref{cfg: cfg, sets: make([][]refLine, cfg.Sets())}
}

// Access simulates one access and reports whether it hit.
func (r *Ref) Access(addr uint32, isStore bool) bool {
	r.clock++
	r.stats.Accesses++
	block := addr / uint32(r.cfg.BlockBytes)
	si := block % uint32(r.cfg.Sets())
	tag := block / uint32(r.cfg.Sets())
	set := r.sets[si]
	for i := range set {
		if set[i].tag == tag {
			if r.cfg.Repl == LRU {
				set[i].stamp = r.clock
			}
			return true
		}
	}
	if len(set) == r.cfg.Assoc {
		victim := 0
		for i := range set {
			if set[i].stamp < set[victim].stamp {
				victim = i
			}
		}
		set = append(set[:victim], set[victim+1:]...)
	}
	r.sets[si] = append(set, refLine{tag: tag, stamp: r.clock})
	r.stats.Misses++
	if isStore {
		r.stats.StoreMisses++
	} else {
		r.stats.LoadMisses++
	}
	return false
}

// Stats returns the model's counters in Cache's form.
func (r *Ref) Stats() Stats { return r.stats }
