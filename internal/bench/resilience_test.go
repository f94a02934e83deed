package bench

import (
	"context"
	"errors"
	"testing"

	"delinq/internal/cache"
	"delinq/internal/core"
	"delinq/internal/faultinject"
	"delinq/internal/rescache"
	"delinq/internal/vm"
)

// withPlan installs a fault plan for one test, clearing the plan and
// the memo caches on both sides so armed faults never leak into (or
// memoised results out of) other tests.
func withPlan(t *testing.T, p *faultinject.Plan) {
	t.Helper()
	ResetCache()
	faultinject.Install(p)
	t.Cleanup(func() {
		faultinject.Clear()
		ResetCache()
	})
}

// TestPatternFaultFailsPatternStage: an armed pattern seam fails the
// build at the pattern stage with provenance the caller can match, and
// the failure is not memoised: once the one-shot fault is spent, the
// same request compiles.
func TestPatternFaultFailsPatternStage(t *testing.T) {
	ctx := context.Background()
	b := ByName("181.mcf")
	p := faultinject.NewPlan(1)
	p.ArmN(faultinject.PatternBudget, b.Name, 1)
	withPlan(t, p)

	_, err := CompileISACtx(ctx, b, false, "")
	if !errors.Is(err, &core.StageError{Benchmark: b.Name, Stage: core.StagePattern}) {
		t.Fatalf("err = %v, want pattern-stage StageError for %s", err, b.Name)
	}
	if !faultinject.Injected(err) {
		t.Errorf("injected fault not recognisable through the error: %v", err)
	}

	bd, err := CompileISACtx(ctx, b, false, "")
	if err != nil {
		t.Fatalf("compile after the fault was spent: %v", err)
	}
	if len(bd.Loads) == 0 {
		t.Error("recovered build has no loads")
	}
}

func TestCorruptImageFailsAssembleStage(t *testing.T) {
	b := ByName("181.mcf")
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.CorruptImage, b.Name)
	withPlan(t, p)

	_, err := CompileISACtx(context.Background(), b, false, "")
	if !errors.Is(err, &core.StageError{Benchmark: b.Name, Stage: core.StageAssemble}) {
		t.Fatalf("err = %v, want assemble-stage StageError for %s", err, b.Name)
	}
}

func TestSimBudgetFailsSimulateStage(t *testing.T) {
	ctx := context.Background()
	b := ByName("181.mcf")
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.SimBudget, b.Name)
	withPlan(t, p)

	bd, err := CompileISACtx(ctx, b, false, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = SimulateCtx(ctx, bd, b.Input1, []cache.Config{cache.Baseline})
	if !errors.Is(err, &core.StageError{Stage: core.StageSimulate}) {
		t.Fatalf("err = %v, want simulate-stage StageError", err)
	}
	if !errors.Is(err, vm.ErrBudget) {
		t.Errorf("collapsed budget not reported as ErrBudget: %v", err)
	}
}

func TestWorkerPanicFailsWorkerStage(t *testing.T) {
	ctx := context.Background()
	b := ByName("181.mcf")
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.WorkerPanic, b.Name)
	withPlan(t, p)

	bd, err := CompileISACtx(ctx, b, false, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = SimulateCtx(ctx, bd, b.Input1, []cache.Config{cache.Baseline})
	if !errors.Is(err, &core.StageError{Stage: core.StageWorker}) {
		t.Fatalf("err = %v, want worker-stage StageError", err)
	}
	var pe *rescache.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("recovered panic not surfaced as PanicError: %v", err)
	}
	if !faultinject.Injected(err) {
		t.Errorf("deliberate fault not recognisable: %v", err)
	}

	// The error is not memoised: with the plan cleared the same request
	// succeeds.
	faultinject.Clear()
	if _, err := SimulateCtx(ctx, bd, b.Input1, []cache.Config{cache.Baseline}); err != nil {
		t.Errorf("simulate after disarming: %v", err)
	}
}
