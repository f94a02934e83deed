// Cross-cutting invariants of the whole pipeline, checked on real
// benchmark binaries: things no single package can verify alone.
package delinq

import (
	"context"
	"testing"

	"delinq/internal/baseline"
	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/core"
	"delinq/internal/metrics"
	"delinq/internal/obj"
	"delinq/internal/pattern"
	"delinq/internal/tables"
)

func loadCtx(t *testing.T, name string) *tables.Ctx {
	t.Helper()
	ctx, err := tables.Engine{}.Load(context.Background(), bench.ByName(name), false, false)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestMissesNeverExceedExecutions: M(i,C) ≤ E(i) for every load under
// every geometry — each execution can miss at most once.
func TestMissesNeverExceedExecutions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	for _, name := range []string{"181.mcf", "164.gzip", "099.go"} {
		ctx := loadCtx(t, name)
		for gi := range tables.StdGeoms {
			for _, s := range ctx.Stats(gi) {
				if s.Misses > s.Exec {
					t.Errorf("%s geom %d pc %#x: misses %d > exec %d",
						name, gi, s.PC, s.Misses, s.Exec)
				}
			}
		}
	}
}

// TestLargerCacheNeverMuchWorse: total load misses must not grow
// significantly with cache size at fixed associativity (LRU inclusion
// holds per set count; geometry changes can reshuffle slightly).
func TestLargerCacheNeverMuchWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	order := []int{tables.GeomBaseline, tables.Geom16K, tables.Geom32K, tables.Geom64K}
	for _, name := range []string{"181.mcf", "179.art", "129.compress"} {
		ctx := loadCtx(t, name)
		prev := int64(-1)
		for _, gi := range order {
			total := metrics.TotalMisses(ctx.Stats(gi))
			if prev >= 0 && float64(total) > 1.05*float64(prev) {
				t.Errorf("%s: misses grew with cache size: %d -> %d", name, prev, total)
			}
			prev = total
		}
	}
}

// TestDeltaIsDeterministic: two independent compilations and analyses of
// the same source produce the same delinquent set.
func TestDeltaIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("compilation in short mode")
	}
	src := bench.ByName("147.vortex").Source
	sets := make([]map[uint32]bool, 2)
	for i := range sets {
		res, err := core.IdentifySourceCtx(context.Background(), src, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = res.DeltaSet()
	}
	if len(sets[0]) != len(sets[1]) {
		t.Fatalf("set sizes differ: %d vs %d", len(sets[0]), len(sets[1]))
	}
	for pc := range sets[0] {
		if !sets[1][pc] {
			t.Errorf("pc %#x only in first set", pc)
		}
	}
}

// TestImageRoundTripPreservesAnalysis: serialising the image to its file
// format and reloading must not change the analysis (symbol/type info
// feeds BDH; text feeds everything).
func TestImageRoundTripPreservesAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("compilation in short mode")
	}
	ctx := context.Background()
	img, err := core.BuildSourceISA(bench.ByName("022.li").Source, false, "")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	img2, err := obj.DecodeImage(blob)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.IdentifyImageCtx(ctx, img, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.IdentifyImageCtx(ctx, img2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := r1.DeltaSet(), r2.DeltaSet()
	if len(d1) != len(d2) {
		t.Fatalf("delta differs after round trip: %d vs %d", len(d1), len(d2))
	}
	b1 := baseline.BDH(r1.Prog, r1.Loads)
	b2 := baseline.BDH(r2.Prog, r2.Loads)
	if len(b1) != len(b2) {
		t.Errorf("BDH differs after round trip: %d vs %d", len(b1), len(b2))
	}
}

// TestHeuristicSubsetOfOKN: with frequency classes off, every load the
// heuristic flags is also flagged by OKN — the paper says its method
// "in general subsumes" OKN in the other direction: OKN is the coarser
// superset.
func TestHeuristicSubsetOfOKN(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	cfg, err := tables.Engine{}.HeuristicConfig(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"181.mcf", "008.espresso", "197.parser"} {
		ctx := loadCtx(t, name)
		okn := baseline.OKN(ctx.Build.Loads)
		for pc := range ctx.Delta(cfg) {
			if !okn[pc] {
				t.Errorf("%s: heuristic flags %#x but OKN does not", name, pc)
			}
		}
	}
}

// TestEveryLoadHasAPattern: the analysis must produce at least one
// address pattern for every load in every benchmark binary.
func TestEveryLoadHasAPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("compilation in short mode")
	}
	for _, b := range bench.All() {
		bd, err := bench.CompileISACtx(context.Background(), b, false, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, ld := range bd.Loads {
			if len(ld.Patterns) == 0 {
				t.Errorf("%s: load at %#x has no patterns", b.Name, ld.PC)
			}
			for _, p := range ld.Patterns {
				if p.Size() > pattern.MaxSize+8 {
					t.Errorf("%s: pattern at %#x exceeds node bound: %d",
						b.Name, ld.PC, p.Size())
				}
			}
		}
	}
}

// TestFrequencyClassesOnlyShrinkDelta: adding AG8/AG9 can only remove
// loads from Δ (negative weights), never add.
func TestFrequencyClassesOnlyShrinkDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	cfgN, err := tables.Engine{}.HeuristicConfig(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfgF, err := tables.Engine{}.HeuristicConfig(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"300.twolf", "126.gcc"} {
		ctx := loadCtx(t, name)
		without := ctx.Delta(cfgN)
		with := ctx.Delta(cfgF)
		for pc := range with {
			if !without[pc] {
				t.Errorf("%s: %#x flagged only with frequency classes", name, pc)
			}
		}
		if len(with) > len(without) {
			t.Errorf("%s: frequency classes grew delta %d -> %d",
				name, len(without), len(with))
		}
	}
}

// TestClassifyScoreMatchesManualPhi recomputes φ by hand for a sample of
// loads and compares with the classifier.
func TestClassifyScoreMatchesManualPhi(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	ctx := loadCtx(t, "181.mcf")
	cfg, err := tables.Engine{}.HeuristicConfig(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	scored := ctx.Heuristic(cfg)
	for _, s := range scored[:10] {
		freqClass := classify.FreqClass(ctx.Run.ExecCount(s.Load.PC))
		best := 0.0
		first := true
		for _, p := range s.Load.Patterns {
			sum := 0.0
			for _, c := range classify.PatternClasses(classify.FeaturesOf(p)) {
				sum += (*cfg.Weights)[c]
			}
			if freqClass != 0 {
				sum += (*cfg.Weights)[freqClass]
			}
			if first || sum > best {
				best = sum
				first = false
			}
		}
		if diff := best - s.Phi; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("pc %#x: manual phi %v != scored %v", s.Load.PC, best, s.Phi)
		}
	}
}

// TestCacheModelAgainstDirectSimulation cross-checks the per-load sum of
// misses against the cache's own counter for every benchmark.
func TestCacheModelAgainstDirectSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	ctx := context.Background()
	for _, b := range bench.All()[:6] {
		bd, err := bench.CompileISACtx(ctx, b, false, "")
		if err != nil {
			t.Fatal(err)
		}
		run, err := bench.SimulateCtx(ctx, bd, b.Input1, []cache.Config{cache.Baseline})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, s := range run.LoadStats(bd.Loads, 0) {
			sum += s.Misses
		}
		if uint64(sum) != run.Caches[0].Stats().LoadMisses {
			t.Errorf("%s: per-load miss sum %d != cache counter %d",
				b.Name, sum, run.Caches[0].Stats().LoadMisses)
		}
	}
}
