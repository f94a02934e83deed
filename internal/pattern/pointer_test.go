package pattern_test

import (
	"context"
	"testing"

	"delinq/internal/bench"
	"delinq/internal/core"
	"delinq/internal/disasm"
	"delinq/internal/pattern"
)

// TestPointerFlagFlatEqualsInter: Load.Pointer reads only each
// function's own reaching definitions, so the flat and the
// interprocedural analyses set it on exactly the same loads, for every
// benchmark on both ISAs at -O0 and -O.
func TestPointerFlagFlatEqualsInter(t *testing.T) {
	ctx := context.Background()
	for _, b := range bench.All() {
		for _, isaName := range []string{"mips", "arm"} {
			for _, opt := range []bool{false, true} {
				img, err := core.BuildSourceISA(b.Source, opt, isaName)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := disasm.Disassemble(img)
				if err != nil {
					t.Fatal(err)
				}
				flat, err := pattern.AnalyzeProgramCtx(ctx, prog, pattern.Config{})
				if err != nil {
					t.Fatal(err)
				}
				inter, err := pattern.AnalyzeProgramCtx(ctx, prog, pattern.Config{Interprocedural: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(flat) != len(inter) {
					t.Fatalf("%s %s -O=%v: %d flat loads, %d inter", b.Name, isaName, opt, len(flat), len(inter))
				}
				marked := 0
				for i, ld := range flat {
					if ld.PC != inter[i].PC || ld.Pointer != inter[i].Pointer {
						t.Errorf("%s %s -O=%v: load %d at %#x: flat Pointer %v, inter %#x Pointer %v",
							b.Name, isaName, opt, i, ld.PC, ld.Pointer, inter[i].PC, inter[i].Pointer)
					}
					if ld.Pointer {
						marked++
					}
				}
				if marked == 0 {
					t.Errorf("%s %s -O=%v: no pointer load among %d", b.Name, isaName, opt, len(flat))
				}
			}
		}
	}
}
