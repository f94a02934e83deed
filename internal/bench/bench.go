// Package bench provides the experimental workload: eighteen synthetic
// mini-C programs, one per SPEC benchmark used in the paper, each
// modelling its namesake's characteristic memory behaviour, plus the
// harness that compiles, simulates and analyses them with result
// caching. Only successful results are cached; a failure reaches its
// callers as a *core.StageError and the next call recomputes.
//
// The substitution (real SPEC binaries are unavailable here) preserves
// what the heuristic depends on: the mix of scalar stack traffic, strided
// array walks, hash probing, and pointer chasing; two input sets per
// program; and cold initialisation/reporting code around hot kernels.
package bench

import (
	"context"
	"errors"
	"strconv"
	"strings"

	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/core"
	"delinq/internal/disasm"
	"delinq/internal/faultinject"
	"delinq/internal/isa"
	"delinq/internal/metrics"
	"delinq/internal/obj"
	"delinq/internal/pattern"
	"delinq/internal/rescache"
	"delinq/internal/vm"
)

// Benchmark is one synthetic SPEC stand-in.
type Benchmark struct {
	Name     string // e.g. "181.mcf"
	Source   string // mini-C source
	Training bool   // member of the 11-benchmark training set
	// Input1 is the training/reference input; Input2 the alternate
	// (Table 6).
	Input1, Input2         []int32
	Input1Name, Input2Name string
}

// Registry of all benchmarks, ordered as in the paper's tables.
var registry []*Benchmark

func register(b *Benchmark) { registry = append(registry, attachColdLib(b)) }

// All returns every benchmark in table order.
func All() []*Benchmark { return registry }

// Training returns the 11 training benchmarks.
func Training() []*Benchmark {
	var out []*Benchmark
	for _, b := range registry {
		if b.Training {
			out = append(out, b)
		}
	}
	return out
}

// Test returns the 7 held-out benchmarks (Table 10).
func Test() []*Benchmark {
	var out []*Benchmark
	for _, b := range registry {
		if !b.Training {
			out = append(out, b)
		}
	}
	return out
}

// ByName returns the named benchmark, or nil.
func ByName(name string) *Benchmark {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Build is one compiled benchmark binary with its static analysis.
type Build struct {
	Bench    *Benchmark
	Optimize bool
	// ISA is the machine description the image was lowered to; empty
	// means the assembler's native mips.
	ISA   string
	Image *obj.Image
	Prog  *disasm.Program
	Loads []*pattern.Load
}

// Run is one completed simulation of a build on one input: the VM
// profile plus a cache model per requested geometry.
type Run struct {
	core.Simulation
	Build *Build
	Input []int32
}

// Stats returns the per-load statistics of the build's loads under
// geometry gi.
func (r *Run) Stats(gi int) []metrics.LoadStat { return r.LoadStats(r.Build.Loads, gi) }

// Delta returns the heuristic's possibly-delinquent set under cfg, with
// the run as the execution profile.
func (r *Run) Delta(cfg classify.Config) map[uint32]bool {
	return classify.DeltaSet(classify.Score(r.Build.Loads, r, cfg))
}

// builds memoises compiled binaries and runs completed simulations;
// experiments across tables share them. Both are singleflight caches:
// concurrent requests for the same key block on one in-flight
// computation instead of duplicating it or serialising on a global
// lock, which is what lets a worker pool saturate every core. The zero
// rescache.Config keeps every successful result until ResetCache.
var (
	builds     = rescache.New[*Build](rescache.Config{}, nil)
	runs       = rescache.New[*Run](rescache.Config{}, nil)
	interLoads = rescache.New[[]*pattern.Load](rescache.Config{}, nil)
)

// ResetCache clears the memoised builds and runs (used by tests and the
// throughput benchmarks). Computations in flight when ResetCache is
// called are detached, not cancelled: their callers still receive the
// build or run they asked for, but the result is dropped instead of
// retained, and later calls recompute. It is safe to call concurrently
// with CompileISACtx, SimulateCtx, or a running tables.Preload.
func ResetCache() {
	builds.Reset()
	runs.Reset()
	interLoads.Reset()
}

// CacheStats returns the activity counters of the build and run
// caches. Stats.Misses counts computations actually started, so after
// any sequence of concurrent experiments, Misses equals the number of
// distinct (benchmark, optimize) builds and distinct (benchmark,
// optimize, input, geometries) simulations performed — the exactly-once
// property the concurrency tests assert.
func CacheStats() (build, run rescache.Stats) {
	return builds.Stats(), runs.Stats()
}

// buildKey canonically encodes a compile request. The benchmark name is
// length-prefixed so no name can alias another's encoding, and the
// target ISA is folded in (canonicalised so "" and "mips" share one
// build) so memoised builds never cross machine descriptions.
func buildKey(name string, optimize bool, isaName string) string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(len(name)))
	sb.WriteByte(':')
	sb.WriteString(name)
	if optimize {
		sb.WriteString("|O1")
	} else {
		sb.WriteString("|O0")
	}
	sb.WriteString("|isa=")
	sb.WriteString(isa.Canonical(isaName))
	return sb.String()
}

// runKey canonically encodes a simulate request: the build key, the
// length-prefixed input vector, and every geometry's full parameter
// set. Logically identical requests always produce the same key, and
// distinct vectors or geometry bundles can never collide (each list is
// length-prefixed and each element fully delimited).
func runKey(bd *Build, input []int32, geoms []cache.Config) string {
	var sb strings.Builder
	sb.WriteString(buildKey(bd.Bench.Name, bd.Optimize, bd.ISA))
	sb.WriteString("|in")
	sb.WriteString(strconv.Itoa(len(input)))
	sb.WriteByte(':')
	for _, v := range input {
		sb.WriteString(strconv.FormatInt(int64(v), 10))
		sb.WriteByte(',')
	}
	sb.WriteString("|g")
	sb.WriteString(strconv.Itoa(len(geoms)))
	sb.WriteByte(':')
	for _, g := range geoms {
		sb.WriteString(strconv.Itoa(g.SizeBytes))
		sb.WriteByte('/')
		sb.WriteString(strconv.Itoa(g.Assoc))
		sb.WriteByte('/')
		sb.WriteString(strconv.Itoa(g.BlockBytes))
		sb.WriteByte('/')
		sb.WriteString(strconv.Itoa(int(g.Repl)))
		sb.WriteByte(';')
	}
	return sb.String()
}

// CompileISACtx builds (or returns the cached) binary for the
// benchmark, lowered to the named machine description ("" means mips):
// the assembled MIPS image goes through core.LowerImage before
// disassembly and pattern analysis, so the cached Build's Prog and Loads
// describe the target ISA's instructions. Concurrent calls for the same
// (benchmark, optimize, ISA) share one compilation; builds for different
// ISAs are memoised under distinct keys and never shared.
//
// Cancelling ctx stops pattern analysis at the next function boundary.
// Every failure is reported as a *core.StageError naming the stage that
// failed, and none is memoised: the next call for the key recomputes.
func CompileISACtx(ctx context.Context, b *Benchmark, optimize bool, isaName string) (*Build, error) {
	bd, _, err := builds.Do(ctx, buildKey(b.Name, optimize, isaName), func() (*Build, bool, error) {
		img, err := core.BuildSourceISA(b.Source, optimize, isaName)
		if err != nil {
			return nil, false, core.WrapStage(b.Name, core.BuildStage(err), err)
		}
		corruptImage(b.Name, img)
		if err := img.Validate(); err != nil {
			return nil, false, core.WrapStage(b.Name, core.StageAssemble, err)
		}
		prog, err := disasm.Disassemble(img)
		if err != nil {
			return nil, false, core.WrapStage(b.Name, core.StageDisasm, err)
		}
		if err := faultinject.Error(faultinject.PatternBudget, b.Name); err != nil {
			return nil, false, core.WrapStage(b.Name, core.StagePattern, err)
		}
		loads, err := pattern.AnalyzeProgramCtx(ctx, prog, pattern.Config{})
		if err != nil {
			return nil, false, core.WrapStage(b.Name, core.StagePattern, err)
		}
		return &Build{
			Bench:    b,
			Optimize: optimize,
			ISA:      isaName,
			Image:    img,
			Prog:     prog,
			Loads:    loads,
		}, true, nil
	})
	if err != nil {
		return nil, cacheError(b.Name, core.StagePattern, err)
	}
	return bd, nil
}

// cacheError attributes an error from a bench cache to a stage. A
// fill's own *core.StageError passes through; a panic the cache
// recovered is a StageWorker failure; anything else (a fill's bare
// error, or this caller's context ending while it waited on another
// caller's fill) is charged to stage, the fill's cancellable stage.
func cacheError(name string, stage core.Stage, err error) error {
	var pe *rescache.PanicError
	if errors.As(err, &pe) {
		return core.WrapStage(name, core.StageWorker, err)
	}
	return core.WrapStage(name, stage, err)
}

// corruptImage is the CorruptImage fault seam: when armed it damages the
// freshly assembled image so the validation that follows rejects it.
// The entry point is always pushed out of range (deterministic failure);
// the plan's random stream adds seed-dependent text damage on top.
func corruptImage(name string, img *obj.Image) {
	if !faultinject.Fires(faultinject.CorruptImage, name) {
		return
	}
	img.Entry = img.TextEnd() + 4
	if rng := faultinject.Rand(faultinject.CorruptImage, name); rng != nil && len(img.Text) > 0 {
		img.Text[rng.Intn(len(img.Text))] ^= 1 << uint(rng.Intn(32))
	}
}

// LoadsInter returns the build's loads re-analysed with interprocedural
// summaries (pattern.Config.Interprocedural). Build.Loads keeps the
// paper's flat per-function analysis; this alternate view is memoised
// alongside it so the comparison tables can render both without
// recomputing either. Cancelling ctx stops the analysis at the next
// function boundary; a failure is a pattern-stage *core.StageError
// naming the benchmark, and is not memoised.
func LoadsInter(ctx context.Context, bd *Build) ([]*pattern.Load, error) {
	name := bd.Bench.Name
	loads, _, err := interLoads.Do(ctx, buildKey(name, bd.Optimize, bd.ISA)+"|inter", func() ([]*pattern.Load, bool, error) {
		loads, err := pattern.AnalyzeProgramCtx(ctx, bd.Prog, pattern.Config{Interprocedural: true})
		return loads, true, err
	})
	if err != nil {
		return nil, cacheError(name, core.StagePattern, err)
	}
	return loads, nil
}

// SimulateCtx runs the binary on the given input, attaching one D-cache
// per geometry; results are memoised, and concurrent calls for the same
// request block on a single simulation. The key is the request's
// content, not the *Build pointer, so after a concurrent ResetCache the
// returned Run may reference a distinct but equivalent Build from the
// caller's argument.
//
// A deadline or cancellation stops the VM within a few thousand
// instructions. Failures surface as *core.StageError — StageSimulate
// for VM and geometry faults, StageWorker for a panic recovered by the
// cache.
func SimulateCtx(ctx context.Context, bd *Build, input []int32, geoms []cache.Config) (*Run, error) {
	name := bd.Bench.Name
	r, _, err := runs.Do(ctx, runKey(bd, input, geoms), func() (*Run, bool, error) {
		faultinject.Crash(faultinject.WorkerPanic, name)
		caches := make([]*cache.Cache, len(geoms))
		for i, gcfg := range geoms {
			c, err := cache.New(gcfg)
			if err != nil {
				return nil, false, core.WrapStage(name, core.StageSimulate, err)
			}
			caches[i] = c
		}
		opts := vm.Options{Args: input, Caches: caches, MaxInsts: 3e8, CaptureOutput: true}
		if faultinject.Fires(faultinject.SimBudget, name) {
			opts.MaxInsts = 10000
		}
		res, err := vm.RunContext(ctx, bd.Image, opts)
		if err != nil {
			return nil, false, core.WrapStage(name, core.StageSimulate, err)
		}
		return &Run{Simulation: core.Simulation{Result: res, Caches: caches}, Build: bd, Input: input}, true, nil
	})
	if err != nil {
		return nil, cacheError(name, core.StageSimulate, err)
	}
	return r, nil
}
