package vm

import (
	"context"
	"errors"
	"testing"
	"time"

	"delinq/internal/asm"
	"delinq/internal/minic"
)

// spin is a program that never exits by itself.
const spin = `
main:
	li $t0, 0
loop:
	addiu $t0, $t0, 1
	j loop
`

func TestBudgetExhaustionIsErrBudget(t *testing.T) {
	img, err := asm.Assemble(spin)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunContext(context.Background(), img, Options{MaxInsts: 5000})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget through the chain", err)
	}
	var ve *Error
	if !errors.As(err, &ve) || ve.PC == 0 {
		t.Errorf("budget error lost the faulting pc: %v", err)
	}
}

func TestContextCancelStopsRun(t *testing.T) {
	img, err := asm.Assemble(spin)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = RunContext(ctx, img, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestBackgroundContextCostsNothing(t *testing.T) {
	// context.Background has a nil Done channel, so the polling branch
	// must be compiled out of the run entirely; a normal run still works.
	img, err := asm.Assemble("main:\n\tli $v0, 10\n\tsyscall\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), img, Options{})
	if err != nil || res.Exit != 0 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
}

// TestMemBudgetMallocLoop: a mini-C malloc loop that touches every
// allocation must hit ErrMemBudget instead of ballooning the host.
func TestMemBudgetMallocLoop(t *testing.T) {
	src := `
int main() {
	int i;
	for (i = 0; i < 1000000; i = i + 1) {
		char *p = malloc(4096);
		p[0] = 1;
	}
	return 0;
}`
	asmText, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunContext(context.Background(), img, Options{MaxMemBytes: 1 << 20})
	if !errors.Is(err, ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget through the chain", err)
	}
	var ve *Error
	if !errors.As(err, &ve) || ve.PC == 0 {
		t.Errorf("memory budget error lost the faulting pc: %v", err)
	}
}

// TestMemBudgetGiantSpace: a giant `.space` region costs nothing until
// touched (pages are lazy), but striding across it must trip the
// budget.
func TestMemBudgetGiantSpace(t *testing.T) {
	ctx := context.Background()
	const giant = `
	.data
buf:	.space 33554432
	.text
main:
	la $t0, buf
	li $t1, 8192
loop:
	sw $zero, 0($t0)
	addiu $t0, $t0, 4096
	addiu $t1, $t1, -1
	bne $t1, $zero, loop
	li $v0, 10
	syscall
`
	img, err := asm.Assemble(giant)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(ctx, img, Options{MaxMemBytes: 1 << 20}); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
	// Unlimited budget: the same program runs to completion.
	if _, err := RunContext(ctx, img, Options{MaxMemBytes: -1}); err != nil {
		t.Fatalf("unlimited budget failed: %v", err)
	}
}

// TestMemBudgetDefaultAppliesAndAllowsNormalRuns: the zero Options
// value gets DefaultMaxMem — enough for every legitimate program, but
// a cap nonetheless.
func TestMemBudgetDefaultAppliesAndAllowsNormalRuns(t *testing.T) {
	img, err := asm.Assemble("main:\n\tli $v0, 10\n\tsyscall\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), img, Options{}); err != nil {
		t.Fatalf("default budget rejected a trivial program: %v", err)
	}
}

func TestRunRejectsInvalidImage(t *testing.T) {
	img, err := asm.Assemble("main:\n\tli $v0, 10\n\tsyscall\n")
	if err != nil {
		t.Fatal(err)
	}
	img.Entry = img.TextEnd() + 8
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Run panicked on invalid image: %v", r)
		}
	}()
	if _, err := RunContext(context.Background(), img, Options{}); err == nil {
		t.Error("out-of-range entry accepted")
	}
}
