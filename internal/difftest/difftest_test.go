package difftest

import (
	"context"
	"errors"
	"strings"
	"testing"

	"delinq/internal/core"
)

// TestRunCtxAbortsAtProgramBoundary pins the deadline contract: a done
// context stops the batch between programs, the summary reports the
// work finished so far, and the error carries difftest-stage
// provenance.
func TestRunCtxAbortsAtProgramBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := RunCtx(ctx, Options{N: 50, Seed: 1})
	if sum.Programs != 0 {
		t.Errorf("ran %d programs under a dead context, want 0", sum.Programs)
	}
	if !errors.Is(err, &core.StageError{Stage: core.StageDifftest}) {
		t.Fatalf("err = %v, want difftest-stage StageError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled through the chain", err)
	}

	// A live context runs everything and reports no error.
	sum, err = RunCtx(context.Background(), Options{N: 3, Seed: 1})
	if err != nil || sum.Programs != 3 {
		t.Fatalf("healthy RunCtx: programs=%d err=%v", sum.Programs, err)
	}
}

// TestThreeWayAgreement is the in-tree slice of the oracle: 150 random
// programs across all archetypes must agree on all three engines. The
// CI smoke and the acceptance run push the same harness much further
// via `delinq difftest`.
func TestThreeWayAgreement(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	sum, err := RunCtx(context.Background(), Options{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Programs != n {
		t.Fatalf("ran %d programs, want %d", sum.Programs, n)
	}
	for i, f := range sum.Failures {
		if i >= 3 {
			t.Errorf("...and %d more failures", len(sum.Failures)-i)
			break
		}
		t.Errorf("seed %d: %s\n--- source ---\n%s", f.Seed, f.Reason, f.Src)
	}
}

// TestThreeWayAgreementARM runs the same oracle with the compiled
// pipelines lowered to the ARM machine description: the interpreter,
// the -O0 ARM binary, and the -O ARM binary must still agree on every
// program. The acceptance run pushes this to 1000 programs per ISA via
// `delinq difftest -isa arm` in scripts/check.sh.
func TestThreeWayAgreementARM(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	sum, err := RunCtx(context.Background(), Options{N: n, Seed: 1, ISA: "arm"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Programs != n {
		t.Fatalf("ran %d programs, want %d", sum.Programs, n)
	}
	for i, f := range sum.Failures {
		if i >= 3 {
			t.Errorf("...and %d more failures", len(sum.Failures)-i)
			break
		}
		t.Errorf("seed %d: %s\n--- source ---\n%s", f.Seed, f.Reason, f.Src)
	}
}

// TestRunUnknownISA: an unknown machine description must surface as a
// per-program failure naming the lowering, not silently fall back.
func TestRunUnknownISA(t *testing.T) {
	reason := CheckProgram("int main() { return 0; }", nil, 0, "sparc")
	if !strings.Contains(reason, "disagree on failure") {
		t.Errorf("unknown ISA not reported: %q", reason)
	}
}

// TestCheckProgramAgreement spot-checks agreement on a handwritten
// program touching chars, floats, pointers, and the heap.
func TestCheckProgramAgreement(t *testing.T) {
	src := `
struct node { int v; struct node *next; };
int g = 3;
int main() {
	struct node *hd = 0;
	int i;
	for (i = 0; i < 5; i++) {
		struct node *nn = malloc(sizeof(struct node));
		nn->v = i * g;
		nn->next = hd;
		hd = nn;
	}
	int s = 0;
	while (hd) { s = s * 7 + hd->v; hd = hd->next; }
	char c = s;
	float f = s / 10.0;
	int fi = f;
	print_int(s); print_char(32 + (c & 63)); print_int(fi);
	return s & 255;
}`
	if reason := CheckProgram(src, []int32{1, 2}, 0, ""); reason != "" {
		t.Errorf("disagreement on handwritten program: %s", reason)
	}
}

// TestCheckProgramAllFault treats a unanimous fault (here: division by
// zero, which faults the VM's DIV and the interpreter alike) as
// agreement.
func TestCheckProgramAllFault(t *testing.T) {
	src := `int main() { int z = 0; return 1 / z; }`
	if reason := CheckProgram(src, nil, 0, ""); reason != "" {
		t.Errorf("unanimous fault reported as disagreement: %s", reason)
	}
}

// TestCheckProgramMixedFailure: a program only some engines reject must
// be reported. Deeply right-nested arithmetic exhausts the code
// generator's ten integer temporaries, but the interpreter has no such
// limit.
func TestCheckProgramMixedFailure(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("int main() { return ")
	depth := 12
	for i := 0; i < depth; i++ {
		sb.WriteString("1 + (")
	}
	sb.WriteString("1")
	for i := 0; i < depth; i++ {
		sb.WriteString(")")
	}
	sb.WriteString("; }")
	reason := CheckProgram(sb.String(), nil, 0, "")
	if reason == "" {
		t.Fatal("compile-side failure not reported")
	}
	if !strings.Contains(reason, "disagree on failure") {
		t.Errorf("unexpected reason: %s", reason)
	}
}

// TestArgsForDeterministic pins the derived input vectors.
func TestArgsForDeterministic(t *testing.T) {
	a := argsFor(42)
	b := argsFor(42)
	if len(a) != len(b) {
		t.Fatal("argsFor is nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("argsFor is nondeterministic")
		}
	}
}
