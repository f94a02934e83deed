// Package core is the library facade: one-call static identification of
// delinquent loads for a compiled program, wiring together the mini-C
// compiler, assembler, disassembler, address-pattern analysis, heuristic
// classifier, simulator, and evaluation metrics.
//
// Typical use:
//
//	res, err := core.IdentifySourceCtx(ctx, src, core.Options{})
//	for _, d := range res.Delinquent() { fmt.Println(core.Describe(d)) }
//
// With an execution profile (simulate first, or bring your own), the
// frequency classes AG8/AG9 sharpen the result; without one the purely
// structural heuristic AG1-AG7 is applied.
package core

import (
	"context"
	"fmt"
	"sort"

	"delinq/internal/asm"
	"delinq/internal/baseline"
	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/disasm"
	"delinq/internal/isa"
	"delinq/internal/isa/arm"
	"delinq/internal/metrics"
	"delinq/internal/minic"
	"delinq/internal/obj"
	"delinq/internal/pattern"
	"delinq/internal/vm"
)

// Options configures identification.
type Options struct {
	// Optimize selects the compiler's -O mode for IdentifySourceCtx.
	Optimize bool
	// ISA names the machine description IdentifySourceCtx builds for
	// ("mips", "arm"); empty means mips. See BuildSourceISA.
	ISA string
	// Classify configures the heuristic; zero value means the trained
	// default (paper weights, δ=0.10, frequency classes enabled when a
	// profile is available).
	Classify *classify.Config
	// Profile supplies execution counts; nil disables AG8/AG9.
	Profile classify.ExecProfile
	// Interprocedural resolves address patterns across call boundaries
	// using per-function summaries over the call graph (it sets
	// Classify.Pattern.Interprocedural; see pattern.Config).
	Interprocedural bool
}

// Result is a completed identification.
type Result struct {
	Image  *obj.Image
	Prog   *disasm.Program
	Loads  []*pattern.Load
	Scored []*classify.Scored
	Config classify.Config
}

// Delinquent returns the loads reported possibly delinquent, highest
// score first.
func (r *Result) Delinquent() []*classify.Scored {
	out := classify.Delinquent(r.Scored)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phi != out[j].Phi {
			return out[i].Phi > out[j].Phi
		}
		return out[i].Load.PC < out[j].Load.PC
	})
	return out
}

// Pi returns the precision measure |Δ|/|Λ|.
func (r *Result) Pi() float64 {
	if len(r.Scored) == 0 {
		return 0
	}
	return float64(len(classify.Delinquent(r.Scored))) / float64(len(r.Scored))
}

// DeltaSet returns Δ as a PC set, ready for metrics.Evaluate.
func (r *Result) DeltaSet() map[uint32]bool { return classify.DeltaSet(r.Scored) }

// IdentifyImageCtx runs the post-compilation analysis on a linked
// image. A deadline or cancellation stops pattern analysis at the next
// function boundary.
func IdentifyImageCtx(ctx context.Context, img *obj.Image, opts Options) (*Result, error) {
	prog, err := disasm.Disassemble(img)
	if err != nil {
		return nil, WrapStage("", StageDisasm, err)
	}
	cfg := classify.DefaultConfig()
	if opts.Classify != nil {
		cfg = *opts.Classify
	}
	if opts.Profile == nil {
		cfg.UseFrequency = false
	}
	if opts.Interprocedural {
		cfg.Pattern.Interprocedural = true
	}
	loads, err := pattern.AnalyzeProgramCtx(ctx, prog, cfg.Pattern)
	if err != nil {
		return nil, WrapStage("", StagePattern, err)
	}
	return &Result{
		Image:  img,
		Prog:   prog,
		Loads:  loads,
		Scored: classify.Score(loads, opts.Profile, cfg),
		Config: cfg,
	}, nil
}

// IdentifySourceCtx compiles mini-C source and identifies its
// delinquent loads. A deadline or cancellation stops pattern analysis
// at the next function boundary (compilation itself is quick and runs
// to completion).
func IdentifySourceCtx(ctx context.Context, src string, opts Options) (*Result, error) {
	img, err := BuildSourceISA(src, opts.Optimize, opts.ISA)
	if err != nil {
		return nil, err
	}
	return IdentifyImageCtx(ctx, img, opts)
}

// BuildSourceISA compiles and assembles mini-C source, then lowers the
// image to the named machine description. Empty or "mips" keeps the
// assembled image; "arm" rewrites it through arm.LowerImage.
func BuildSourceISA(src string, optimize bool, isaName string) (*obj.Image, error) {
	if _, err := isa.ByName(isaName); err != nil {
		return nil, err
	}
	asmText, err := minic.Compile(src, minic.Options{Optimize: optimize})
	if err != nil {
		return nil, err
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		return nil, err
	}
	return LowerImage(img, isaName)
}

// LowerImage rewrites an assembled MIPS image for the named machine
// description; empty or "mips" returns img unchanged. Any failure —
// including a nil or corrupt-but-decodable image — comes back as a
// StageError at the lower stage, never a panic.
func LowerImage(img *obj.Image, isaName string) (*obj.Image, error) {
	if img == nil {
		return nil, WrapStage("", StageLower, fmt.Errorf("nil image"))
	}
	if isaName == "" || isaName == img.ISAName() {
		return img, nil
	}
	switch isaName {
	case "arm":
		out, err := arm.LowerImage(img)
		if err != nil {
			return nil, WrapStage("", StageLower, err)
		}
		return out, nil
	default:
		_, err := isa.ByName(isaName)
		if err == nil {
			err = fmt.Errorf("no lowering to ISA %q", isaName)
		}
		return nil, WrapStage("", StageLower, err)
	}
}

// Simulation couples a run's profile with its cache statistics.
type Simulation struct {
	Result *vm.Result
	Caches []*cache.Cache
}

// ExecCount implements classify.ExecProfile.
func (s *Simulation) ExecCount(pc uint32) int64 { return s.Result.ExecAt(pc) }

// LoadStats extracts per-load statistics for cache index ci.
func (s *Simulation) LoadStats(loads []*pattern.Load, ci int) []metrics.LoadStat {
	out := make([]metrics.LoadStat, 0, len(loads))
	for _, ld := range loads {
		out = append(out, metrics.LoadStat{
			PC:     ld.PC,
			Exec:   s.Result.ExecAt(ld.PC),
			Misses: s.Result.MissesAt(ci, ld.PC),
		})
	}
	return out
}

// SimulateCtx executes the image with the given inputs against one or
// more cache geometries (defaulting to the 8 KB baseline). A deadline or
// cancellation stops the VM within a few thousand instructions.
func SimulateCtx(ctx context.Context, img *obj.Image, args []int32, geoms ...cache.Config) (*Simulation, error) {
	if len(geoms) == 0 {
		geoms = []cache.Config{cache.Baseline}
	}
	caches := make([]*cache.Cache, len(geoms))
	for i, g := range geoms {
		c, err := cache.New(g)
		if err != nil {
			return nil, WrapStage("", StageSimulate, err)
		}
		caches[i] = c
	}
	res, err := vm.RunContext(ctx, img, vm.Options{Args: args, Caches: caches, CaptureOutput: true})
	if err != nil {
		return nil, WrapStage("", StageSimulate, err)
	}
	return &Simulation{Result: res, Caches: caches}, nil
}

// Evaluate computes π and ρ of the identification against a simulation.
func (r *Result) Evaluate(sim *Simulation, cacheIdx int) metrics.SetEval {
	return metrics.Evaluate(r.DeltaSet(), sim.LoadStats(r.Loads, cacheIdx))
}

// Baselines evaluates the OKN and BDH comparison methods on the same
// binary and simulation.
func (r *Result) Baselines(sim *Simulation, cacheIdx int) (okn, bdh metrics.SetEval) {
	stats := sim.LoadStats(r.Loads, cacheIdx)
	okn = metrics.Evaluate(baseline.OKN(r.Loads), stats)
	bdh = metrics.Evaluate(baseline.BDH(r.Prog, r.Loads), stats)
	return okn, bdh
}

// Describe renders one scored load for reports.
func Describe(s *classify.Scored) string {
	pat := "?"
	if len(s.Load.Patterns) > 0 {
		pat = s.Load.Patterns[0].String()
	}
	return fmt.Sprintf("%s+%#x  %-24s phi=%+.2f  classes=%v  pattern=%s",
		s.Load.Func.Name, s.Load.PC-s.Load.Func.Entry, s.Load.Inst, s.Phi, s.Classes, pat)
}
