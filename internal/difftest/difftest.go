// Package difftest is the three-way differential oracle for the
// compiler/VM pipeline. Every generated program is executed three
// independent ways:
//
//  1. the AST reference interpreter (internal/interp),
//  2. compiled at -O0, assembled, and simulated (internal/vm),
//  3. compiled at -O (register promotion), assembled, and simulated.
//
// All three must agree on the exit status and the byte-for-byte output.
// The interpreter shares only the parser and checker with the compiled
// pipelines, so a disagreement localises a bug to the code generator,
// the assembler, the VM, or the interpreter itself — without needing a
// known-good external toolchain.
package difftest

import (
	"context"
	"fmt"
	"math/rand"

	"delinq/internal/asm"
	"delinq/internal/core"
	"delinq/internal/interp"
	"delinq/internal/minic"
	"delinq/internal/progen"
	"delinq/internal/vm"
)

// Options configures a differential run.
type Options struct {
	// N is the number of programs to generate and check.
	N int
	// Seed is the base seed; program k uses Seed+k.
	Seed int64
	// Config shapes the generated programs; the zero value means
	// progen.DefaultConfig.
	Config progen.Config
	// MaxInsts bounds each VM execution; zero means 20e6. The
	// interpreter's step budget scales from the same bound.
	MaxInsts int64
	// ISA names the machine description the compiled pipelines target
	// ("mips", "arm"); empty means mips. The reference interpreter is
	// machine-independent, so a disagreement under "arm" localises a
	// bug to the lowering, the ARM encoder/decoder, or the ARM VM.
	ISA string
	// Progress, when set, receives a line per 100 programs.
	Progress func(done, total int)
}

// Failure is one disagreeing program.
type Failure struct {
	Seed   int64
	Reason string
	Src    string
}

// Summary is the outcome of a differential run.
type Summary struct {
	Programs int
	Failures []Failure
}

// outcome is one engine's verdict on a program.
type outcome struct {
	exit   int32
	output string
	err    error
}

func (o outcome) String() string {
	if o.err != nil {
		return fmt.Sprintf("error: %v", o.err)
	}
	return fmt.Sprintf("exit=%d output=%q", o.exit, o.output)
}

// runCompiled sends src through compile/assemble/lower/simulate at the
// given optimisation level and machine description.
func runCompiled(src string, optimize bool, args []int32, maxInsts int64, isaName string) outcome {
	asmText, err := minic.Compile(src, minic.Options{Optimize: optimize})
	if err != nil {
		return outcome{err: fmt.Errorf("compile: %w", err)}
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		return outcome{err: fmt.Errorf("assemble: %w", err)}
	}
	img, err = core.LowerImage(img, isaName)
	if err != nil {
		return outcome{err: fmt.Errorf("lower: %w", err)}
	}
	res, err := vm.RunContext(context.Background(), img, vm.Options{
		Args:          args,
		CaptureOutput: true,
		MaxInsts:      maxInsts,
	})
	if err != nil {
		return outcome{err: err}
	}
	return outcome{exit: res.Exit, output: res.Output}
}

// runInterp evaluates src on the reference interpreter.
func runInterp(src string, args []int32, maxInsts int64) outcome {
	res, err := interp.Run(src, interp.Options{
		Args: args,
		// Each statement step expands to several instructions, so the
		// same bound is a strictly more generous budget.
		MaxSteps: maxInsts,
	})
	if err != nil {
		return outcome{err: err}
	}
	return outcome{exit: res.Exit, output: res.Output}
}

// CheckProgram runs one program through all three engines, the compiled
// pipelines targeting the named machine description ("" means mips),
// and returns a description of any disagreement (empty string when
// they agree). Programs on which every engine faults — e.g. a division
// by zero — count as agreement; a fault in some engines but not others
// does not.
func CheckProgram(src string, args []int32, maxInsts int64, isaName string) string {
	if maxInsts == 0 {
		maxInsts = 20e6
	}
	ref := runInterp(src, args, maxInsts)
	o0 := runCompiled(src, false, args, maxInsts, isaName)
	o1 := runCompiled(src, true, args, maxInsts, isaName)

	errs := 0
	for _, o := range []outcome{ref, o0, o1} {
		if o.err != nil {
			errs++
		}
	}
	switch errs {
	case 3:
		return ""
	case 0:
		if ref.exit != o0.exit || ref.output != o0.output {
			return fmt.Sprintf("interp vs -O0: interp %v, -O0 %v", ref, o0)
		}
		if o0.exit != o1.exit || o0.output != o1.output {
			return fmt.Sprintf("-O0 vs -O: -O0 %v, -O %v", o0, o1)
		}
		return ""
	default:
		return fmt.Sprintf("engines disagree on failure: interp %v, -O0 %v, -O %v", ref, o0, o1)
	}
}

// argsFor derives a deterministic per-program input vector.
func argsFor(seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed*2654435761 + 97))
	args := make([]int32, rng.Intn(5))
	for i := range args {
		args[i] = int32(rng.Intn(4000) - 2000)
	}
	return args
}

// RunCtx generates opts.N programs and checks each one three ways. The
// batch stops at the next program boundary once ctx is done, returning
// the programs checked so far together with a difftest-stage
// *core.StageError recording the abort. A nil error means every
// requested program ran.
func RunCtx(ctx context.Context, opts Options) (*Summary, error) {
	cfg := opts.Config
	if cfg == (progen.Config{}) {
		cfg = progen.DefaultConfig()
	}
	gen := progen.New(cfg)
	sum := &Summary{}
	for k := 0; k < opts.N; k++ {
		if err := ctx.Err(); err != nil {
			return sum, core.WrapStage("", core.StageDifftest,
				fmt.Errorf("aborted after %d of %d programs: %w", sum.Programs, opts.N, err))
		}
		seed := opts.Seed + int64(k)
		src := gen.Program(seed)
		if reason := CheckProgram(src, argsFor(seed), opts.MaxInsts, opts.ISA); reason != "" {
			sum.Failures = append(sum.Failures, Failure{Seed: seed, Reason: reason, Src: src})
		}
		sum.Programs++
		if opts.Progress != nil && (k+1)%100 == 0 {
			opts.Progress(k+1, opts.N)
		}
	}
	return sum, nil
}
