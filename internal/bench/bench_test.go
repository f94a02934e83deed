package bench

import (
	"context"
	"testing"

	"delinq/internal/cache"
)

func TestRegistryShape(t *testing.T) {
	if len(All()) != 18 {
		t.Fatalf("registered %d benchmarks, want 18", len(All()))
	}
	if len(Training()) != 11 {
		t.Errorf("training set = %d, want 11", len(Training()))
	}
	if len(Test()) != 7 {
		t.Errorf("test set = %d, want 7", len(Test()))
	}
	if ByName("181.mcf") == nil || ByName("nope") != nil {
		t.Error("ByName broken")
	}
	seen := map[string]bool{}
	for _, b := range All() {
		if seen[b.Name] {
			t.Errorf("duplicate %s", b.Name)
		}
		seen[b.Name] = true
		if len(b.Input1) == 0 || len(b.Input2) == 0 {
			t.Errorf("%s missing inputs", b.Name)
		}
	}
}

// TestAllBenchmarksRun compiles and executes every benchmark in both
// modes on Input1 and sanity-checks the dynamic profile.
func TestAllBenchmarksRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	ctx := context.Background()
	geoms := []cache.Config{cache.Baseline}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, opt := range []bool{false, true} {
				bd, err := CompileISACtx(ctx, b, opt, "")
				if err != nil {
					t.Fatalf("compile(opt=%v): %v", opt, err)
				}
				if n := bd.NumLoads(); n < 25 {
					t.Errorf("opt=%v: only %d static loads", opt, n)
				}
				run, err := SimulateCtx(ctx, bd, b.Input1, geoms)
				if err != nil {
					t.Fatalf("run(opt=%v): %v", opt, err)
				}
				insts := run.Result.Insts
				if insts < 200_000 || insts > 50_000_000 {
					t.Errorf("opt=%v: %d instructions executed (miscalibrated)", opt, insts)
				}
				st := run.Caches[0].Stats()
				if st.Accesses == 0 || st.LoadMisses == 0 {
					t.Errorf("opt=%v: cache stats %+v", opt, st)
				}
				t.Logf("opt=%v: insts=%d loads=%d accesses=%d missrate=%.2f%%",
					opt, insts, bd.NumLoads(), st.Accesses, 100*st.MissRate())
			}
		})
	}
}

// TestInputsDiffer ensures Input2 actually changes the execution.
func TestInputsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	ctx := context.Background()
	b := ByName("129.compress")
	bd, err := CompileISACtx(ctx, b, false, "")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := SimulateCtx(ctx, bd, b.Input1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SimulateCtx(ctx, bd, b.Input2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Result.Insts == r2.Result.Insts {
		t.Error("Input2 executed identically to Input1")
	}
}

func TestCaching(t *testing.T) {
	ctx := context.Background()
	b := ByName("099.go")
	b1, err := CompileISACtx(ctx, b, false, "")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := CompileISACtx(ctx, b, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("build cache miss")
	}
	r1, err := SimulateCtx(ctx, b1, b.Input1, []cache.Config{cache.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SimulateCtx(ctx, b1, b.Input1, []cache.Config{cache.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("run cache miss")
	}
}

func TestLoadStats(t *testing.T) {
	ctx := context.Background()
	b := ByName("099.go")
	bd, err := CompileISACtx(ctx, b, false, "")
	if err != nil {
		t.Fatal(err)
	}
	run, err := SimulateCtx(ctx, bd, b.Input1, []cache.Config{cache.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	stats := run.LoadStats(bd.Loads, 0)
	if len(stats) != bd.NumLoads() {
		t.Fatalf("stats = %d, loads = %d", len(stats), bd.NumLoads())
	}
	var exec, misses int64
	for _, s := range stats {
		exec += s.Exec
		misses += s.Misses
	}
	if exec == 0 || misses == 0 {
		t.Errorf("exec=%d misses=%d", exec, misses)
	}
	if uint64(misses) != run.Caches[0].Stats().LoadMisses {
		t.Errorf("per-load misses %d != cache load misses %d",
			misses, run.Caches[0].Stats().LoadMisses)
	}
}

// TestColdCodePresent verifies that every benchmark binary carries a
// realistic cold-code mass: a sizeable share of its static loads never
// execute under the standard input, which is what gives the AG8/AG9
// frequency classes something to prune (Table 11's contrast).
func TestColdCodePresent(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	ctx := context.Background()
	for _, b := range All() {
		bd, err := CompileISACtx(ctx, b, false, "")
		if err != nil {
			t.Fatal(err)
		}
		run, err := SimulateCtx(ctx, bd, b.Input1, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, total := 0, 0
		for _, ld := range bd.Loads {
			total++
			if run.Result.ExecAt(ld.PC) == 0 {
				cold++
			}
		}
		frac := float64(cold) / float64(total)
		if frac < 0.3 {
			t.Errorf("%s: only %.0f%% of static loads are cold", b.Name, 100*frac)
		}
		// The cold library must actually be linked in.
		if bd.Prog.FuncByName("cold_selftest") == nil {
			t.Errorf("%s: cold library missing", b.Name)
		}
	}
}

// TestBenchmarkChecksumsStable pins each benchmark's exit code: any
// change to a program or the tool chain that alters behaviour must be
// noticed and re-baselined deliberately, since the experiment tables
// depend on these exact executions.
func TestBenchmarkChecksumsStable(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	ctx := context.Background()
	for _, b := range All() {
		bd, err := CompileISACtx(ctx, b, false, "")
		if err != nil {
			t.Fatal(err)
		}
		r1, err := SimulateCtx(ctx, bd, b.Input1, nil)
		if err != nil {
			t.Fatal(err)
		}
		bdO, err := CompileISACtx(ctx, b, true, "")
		if err != nil {
			t.Fatal(err)
		}
		r2, err := SimulateCtx(ctx, bdO, b.Input1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Result.Exit != r2.Result.Exit {
			t.Errorf("%s: -O changes the result: %d vs %d",
				b.Name, r1.Result.Exit, r2.Result.Exit)
		}
	}
}
