// Package delinq's root benchmark harness regenerates every table of the
// paper (go test -bench=Table) and measures the ablations DESIGN.md calls
// out plus the substrate's raw throughput. Table benches report the
// headline measures (pi/rho averages) as custom metrics so a bench run
// doubles as a results summary.
package delinq

import (
	"context"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/core"
	"delinq/internal/metrics"
	"delinq/internal/pattern"
	"delinq/internal/tables"
	"delinq/internal/vm"
)

// mustCache builds a cache from a geometry the bench knows is valid.
func mustCache(cfg cache.Config) *cache.Cache {
	c, err := cache.New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// parsePct pulls a percentage out of a rendered AVERAGE cell.
func parsePct(cell string) float64 {
	cell = strings.TrimSuffix(strings.Fields(cell)[0], "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v
}

func benchTable(b *testing.B, id string, piCol, rhoCol int) {
	b.Helper()
	var t *tables.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = tables.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(t.Rows) == 0 {
		b.Fatal("empty table")
	}
	last := t.Rows[len(t.Rows)-1]
	if last[0] == "AVERAGE" {
		if piCol > 0 && piCol < len(last) {
			b.ReportMetric(parsePct(last[piCol]), "pi_avg_%")
		}
		if rhoCol > 0 && rhoCol < len(last) {
			b.ReportMetric(parsePct(last[rhoCol]), "rho_avg_%")
		}
	}
}

func BenchmarkTable01(b *testing.B) { benchTable(b, "1", 3, 4) }
func BenchmarkTable02(b *testing.B) { benchTable(b, "2", 0, 0) }
func BenchmarkTable03(b *testing.B) { benchTable(b, "3", 0, 0) }
func BenchmarkTable04(b *testing.B) { benchTable(b, "4", 0, 0) }
func BenchmarkTable05(b *testing.B) { benchTable(b, "5", 0, 0) }
func BenchmarkTable06(b *testing.B) { benchTable(b, "6", 0, 0) }
func BenchmarkTable07(b *testing.B) { benchTable(b, "7", 0, 0) }
func BenchmarkTable08(b *testing.B) { benchTable(b, "8", 1, 3) }
func BenchmarkTable09(b *testing.B) { benchTable(b, "9", 1, 2) }
func BenchmarkTable10(b *testing.B) { benchTable(b, "10", 1, 2) }
func BenchmarkTable11(b *testing.B) { benchTable(b, "11", 1, 2) }
func BenchmarkTable12(b *testing.B) { benchTable(b, "12", 1, 2) }
func BenchmarkTable13(b *testing.B) { benchTable(b, "13", 0, 0) }
func BenchmarkTable14(b *testing.B) { benchTable(b, "14", 0, 0) }

// BenchmarkTableS1 regenerates the static-frequency extension experiment.
func BenchmarkTableS1(b *testing.B) { benchTable(b, "S1", 0, 0) }

// BenchmarkTableS2 regenerates the per-benchmark-threshold extension.
func BenchmarkTableS2(b *testing.B) { benchTable(b, "S2", 0, 0) }

// BenchmarkTableS3 regenerates the block-size stability extension.
func BenchmarkTableS3(b *testing.B) { benchTable(b, "S3", 1, 3) }

// BenchmarkAblationPhiMax compares the paper's max-over-patterns φ with
// a sum-over-patterns variant on the full 18-benchmark suite, reporting
// both aggregations' precision.
func BenchmarkAblationPhiMax(b *testing.B) {
	cfg, err := tables.Engine{}.HeuristicConfig(context.Background(), true)
	if err != nil {
		b.Fatal(err)
	}
	var piMax, piSum float64
	for i := 0; i < b.N; i++ {
		piMax, piSum = 0, 0
		for _, bm := range bench.All() {
			ctx, err := tables.Engine{}.Load(context.Background(), bm, false, false)
			if err != nil {
				b.Fatal(err)
			}
			scored := ctx.Heuristic(cfg)
			nMax, nSum := 0, 0
			for _, s := range scored {
				if s.Delinquent {
					nMax++
				}
				// Sum variant: add every pattern's score.
				sum := 0.0
				for _, p := range s.Load.Patterns {
					for _, c := range classify.PatternClasses(classify.FeaturesOf(p)) {
						sum += (*cfg.Weights)[c]
					}
				}
				if sum > cfg.Delta {
					nSum++
				}
			}
			piMax += float64(nMax) / float64(len(scored))
			piSum += float64(nSum) / float64(len(scored))
		}
		piMax /= float64(len(bench.All()))
		piSum /= float64(len(bench.All()))
	}
	b.ReportMetric(100*piMax, "pi_max_%")
	b.ReportMetric(100*piSum, "pi_sum_%")
}

// BenchmarkAblationNegativeClasses measures the heuristic with and
// without the frequency classes — the Table 11 ablation as a single
// number pair.
func BenchmarkAblationNegativeClasses(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with, without = 0, 0
		for _, bm := range bench.All() {
			ctx, err := tables.Engine{}.Load(context.Background(), bm, false, false)
			if err != nil {
				b.Fatal(err)
			}
			cfgF, err := tables.Engine{}.HeuristicConfig(context.Background(), true)
			if err != nil {
				b.Fatal(err)
			}
			cfgN, err := tables.Engine{}.HeuristicConfig(context.Background(), false)
			if err != nil {
				b.Fatal(err)
			}
			stats := ctx.Stats(tables.GeomBaseline)
			with += metrics.Evaluate(ctx.Delta(cfgF), stats).Pi
			without += metrics.Evaluate(ctx.Delta(cfgN), stats).Pi
		}
		with /= float64(len(bench.All()))
		without /= float64(len(bench.All()))
	}
	b.ReportMetric(100*with, "pi_with_freq_%")
	b.ReportMetric(100*without, "pi_no_freq_%")
}

// BenchmarkPatternAnalysis measures the post-compilation analysis
// throughput on the largest benchmark binary.
func BenchmarkPatternAnalysis(b *testing.B) {
	ctx := context.Background()
	bd, err := bench.CompileISACtx(ctx, bench.ByName("126.gcc"), false, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		loads, err := pattern.AnalyzeProgramCtx(ctx, bd.Prog, pattern.Config{})
		if err != nil {
			b.Fatal(err)
		}
		n = len(loads)
	}
	b.ReportMetric(float64(n), "loads")
}

// BenchmarkSimulator measures interpreter+cache throughput in
// instructions per second.
func BenchmarkSimulator(b *testing.B) {
	ctx := context.Background()
	bd, err := bench.CompileISACtx(ctx, bench.ByName("099.go"), false, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		sim, err := core.SimulateCtx(ctx, bd.Image, bd.Bench.Input1)
		if err != nil {
			b.Fatal(err)
		}
		insts = sim.Result.Insts
	}
	b.SetBytes(0)
	b.ReportMetric(float64(insts), "insts/op")
}

// BenchmarkSimulatorNoCache isolates the interpreter from the cache
// model.
func BenchmarkSimulatorNoCache(b *testing.B) {
	ctx := context.Background()
	bd, err := bench.CompileISACtx(ctx, bench.ByName("099.go"), false, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.RunContext(ctx, bd.Image, vm.Options{Args: bd.Bench.Input1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiler measures mini-C compilation speed on the suite's
// largest source.
func BenchmarkCompiler(b *testing.B) {
	bm := bench.ByName("126.gcc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildSourceISA(bm.Source, false, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd measures the full pipeline: compile, assemble,
// disassemble, analyse, classify.
func BenchmarkEndToEnd(b *testing.B) {
	bm := bench.ByName("181.mcf")
	for i := 0; i < b.N; i++ {
		img, err := core.BuildSourceISA(bm.Source, false, "")
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.IdentifyImageCtx(context.Background(), img, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Scored) == 0 {
			b.Fatal("no loads")
		}
	}
}

// BenchmarkVMInstsPerSec measures end-to-end simulation throughput with
// the full standard geometry bundle attached (the hot configuration of
// every table sweep), reporting simulated instructions per second.
func BenchmarkVMInstsPerSec(b *testing.B) {
	ctx := context.Background()
	bd, err := bench.CompileISACtx(ctx, bench.ByName("099.go"), false, "")
	if err != nil {
		b.Fatal(err)
	}
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		caches := make([]*cache.Cache, len(tables.StdGeoms))
		for k, g := range tables.StdGeoms {
			caches[k] = mustCache(g)
		}
		res, err := vm.RunContext(ctx, bd.Image, vm.Options{Args: bd.Bench.Input1, Caches: caches})
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/sec")
}

// BenchmarkCacheAccess measures the cache model's raw access rate on a
// mixed hot/cold address stream: one set-associative and one
// direct-mapped cache through Access, and the six standard geometries
// through one cache.Group, where an access counts once per geometry.
func BenchmarkCacheAccess(b *testing.B) {
	addrs := make([]uint32, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range addrs {
		if i%4 == 0 {
			addrs[i] = uint32(rng.Intn(1 << 20)) // cold-ish
		} else {
			addrs[i] = uint32(rng.Intn(1 << 13)) // hot working set
		}
	}
	for _, cfg := range []cache.Config{
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 8 * 1024, Assoc: 1, BlockBytes: 32},
	} {
		b.Run(cfg.String(), func(b *testing.B) {
			c := mustCache(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(addrs[i&(len(addrs)-1)], i&7 == 7)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accesses/sec")
		})
	}
	b.Run("group/StdGeoms", func(b *testing.B) {
		caches := make([]*cache.Cache, len(tables.StdGeoms))
		for k, g := range tables.StdGeoms {
			caches[k] = mustCache(g)
		}
		group, err := cache.NewGroup(caches)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			group.Access(addrs[i&(len(addrs)-1)], i&7 == 7)
		}
		b.ReportMetric(float64(b.N*len(caches))/b.Elapsed().Seconds(), "accesses/sec")
	})
}

// BenchmarkTableAllParallel regenerates every table from cold caches
// through the parallel engine, reporting total simulated instructions
// per second and the wall-clock speedup over the serial (one-worker)
// path measured in the same process. On a single-core machine the
// speedup is ~1.0 by construction; it scales with GOMAXPROCS.
func BenchmarkTableAllParallel(b *testing.B) {
	ctx := context.Background()
	sweep := func(workers int) time.Duration {
		bench.ResetCache()
		tables.ResetTraining()
		start := time.Now()
		if _, err := (tables.Engine{}).Render(ctx, io.Discard, workers, "all"); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	serial := sweep(1)
	var insts int64
	for _, cb := range tables.AllCombos() {
		bd, err := bench.CompileISACtx(ctx, cb.Bench, cb.Optimize, "")
		if err != nil {
			b.Fatal(err)
		}
		input := cb.Bench.Input1
		if cb.Input2 {
			input = cb.Bench.Input2
		}
		run, err := bench.SimulateCtx(ctx, bd, input, cb.Geoms)
		if err != nil {
			b.Fatal(err)
		}
		insts += run.Result.Insts
	}
	workers := runtime.GOMAXPROCS(0)
	var parallel time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel = sweep(workers)
	}
	b.ReportMetric(float64(insts)/parallel.Seconds(), "insts/sec")
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkAblationReplacementPolicy measures the heuristic's coverage
// under FIFO replacement instead of the paper's LRU — the design-choice
// ablation DESIGN.md lists for the cache substrate.
func BenchmarkAblationReplacementPolicy(b *testing.B) {
	ctx := context.Background()
	cfg, err := tables.Engine{}.HeuristicConfig(context.Background(), true)
	if err != nil {
		b.Fatal(err)
	}
	geoms := []cache.Config{
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32, Repl: cache.LRU},
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32, Repl: cache.FIFO},
	}
	var rhoLRU, rhoFIFO float64
	for i := 0; i < b.N; i++ {
		rhoLRU, rhoFIFO = 0, 0
		names := []string{"181.mcf", "179.art", "164.gzip", "129.compress"}
		for _, name := range names {
			bd, err := bench.CompileISACtx(ctx, bench.ByName(name), false, "")
			if err != nil {
				b.Fatal(err)
			}
			run, err := bench.SimulateCtx(ctx, bd, bd.Bench.Input1, geoms)
			if err != nil {
				b.Fatal(err)
			}
			delta := classify.DeltaSet(classify.Score(bd.Loads, run, cfg))
			rhoLRU += metrics.Evaluate(delta, run.LoadStats(bd.Loads, 0)).Rho
			rhoFIFO += metrics.Evaluate(delta, run.LoadStats(bd.Loads, 1)).Rho
		}
		rhoLRU /= float64(len(names))
		rhoFIFO /= float64(len(names))
	}
	b.ReportMetric(100*rhoLRU, "rho_lru_%")
	b.ReportMetric(100*rhoFIFO, "rho_fifo_%")
}
