package minic

import (
	"context"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/disasm"
	"delinq/internal/pattern"
	"delinq/internal/progen"
	"delinq/internal/vm"
)

// The random-program generator lives in internal/progen (it started
// here as an ad-hoc helper); these tests keep the compiler-local slice
// of the differential harness: -O0 vs -O on the same source. The full
// three-way oracle, with the AST interpreter as an independent
// reference, is internal/difftest.

func runProgram(t *testing.T, src string, optimize bool) (int32, string) {
	t.Helper()
	asmText, err := Compile(src, Options{Optimize: optimize})
	if err != nil {
		t.Fatalf("compile(opt=%v): %v\n--- source ---\n%s", optimize, err, src)
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatalf("assemble(opt=%v): %v\n--- source ---\n%s", optimize, err, src)
	}
	res, err := vm.RunContext(context.Background(), img, vm.Options{CaptureOutput: true, MaxInsts: 20e6})
	if err != nil {
		t.Fatalf("run(opt=%v): %v\n--- source ---\n%s", optimize, err, src)
	}
	return res.Exit, res.Output
}

// TestDifferentialOptimization runs 60 random programs under both
// code-generation modes and demands identical results.
func TestDifferentialOptimization(t *testing.T) {
	g := progen.New(progen.DefaultConfig())
	for seed := int64(1); seed <= 60; seed++ {
		src := g.Program(seed)
		e0, o0 := runProgram(t, src, false)
		e1, o1 := runProgram(t, src, true)
		if e0 != e1 || o0 != o1 {
			t.Fatalf("seed %d: O0 gave (%d, %q), O gave (%d, %q)\n--- source ---\n%s",
				seed, e0, o0, e1, o1, src)
		}
	}
}

// TestDifferentialDeterminism re-runs the same binary twice; the
// simulator must be fully deterministic.
func TestDifferentialDeterminism(t *testing.T) {
	g := progen.New(progen.DefaultConfig())
	src := g.Program(99)
	e1, o1 := runProgram(t, src, false)
	e2, o2 := runProgram(t, src, false)
	if e1 != e2 || o1 != o2 {
		t.Fatal("same binary, different results")
	}
}

// TestDifferentialAnalysis runs the full post-compilation analysis over
// random programs in both modes: the pipeline must never fail, every
// load must get at least one pattern, and scoring must be finite.
func TestDifferentialAnalysis(t *testing.T) {
	g := progen.New(progen.DefaultConfig())
	for seed := int64(101); seed <= 130; seed++ {
		src := g.Program(seed)
		for _, opt := range []bool{false, true} {
			asmText, err := Compile(src, Options{Optimize: opt})
			if err != nil {
				t.Fatalf("seed %d compile: %v", seed, err)
			}
			img, err := asm.Assemble(asmText)
			if err != nil {
				t.Fatalf("seed %d assemble: %v", seed, err)
			}
			prog, err := disasm.Disassemble(img)
			if err != nil {
				t.Fatalf("seed %d disasm: %v", seed, err)
			}
			loads, err := pattern.AnalyzeProgramCtx(context.Background(), prog, pattern.Config{})
			if err != nil {
				t.Fatalf("seed %d pattern: %v", seed, err)
			}
			for _, ld := range loads {
				if len(ld.Patterns) == 0 {
					t.Fatalf("seed %d opt=%v: load %#x has no patterns", seed, opt, ld.PC)
				}
				for _, p := range ld.Patterns {
					if p.String() == "" {
						t.Fatalf("seed %d: empty pattern rendering", seed)
					}
				}
			}
		}
	}
}
