package bench

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"delinq/internal/cache"
)

// TestKeysCanonical: logically identical requests share a key; requests
// differing in any dimension never collide, including slice encodings
// that would alias under naive string joining.
func TestKeysCanonical(t *testing.T) {
	if buildKey("181.mcf", false, "") != buildKey("181.mcf", false, "") {
		t.Error("identical build requests got different keys")
	}
	if buildKey("181.mcf", false, "") == buildKey("181.mcf", true, "") {
		t.Error("optimize flag not encoded")
	}
	if buildKey("a|O1", false, "") == buildKey("a", true, "") {
		t.Error("name containing separator aliases the optimize flag")
	}
	if buildKey("181.mcf", false, "") != buildKey("181.mcf", false, "mips") {
		t.Error("empty ISA and mips should share one build")
	}
	if buildKey("181.mcf", false, "mips") == buildKey("181.mcf", false, "arm") {
		t.Error("ISA not encoded in build key")
	}

	bd := &Build{Bench: &Benchmark{Name: "x"}}
	bdO := &Build{Bench: &Benchmark{Name: "x"}, Optimize: true}
	g1 := []cache.Config{{SizeBytes: 8192, Assoc: 4, BlockBytes: 32}}
	g2 := []cache.Config{{SizeBytes: 8192, Assoc: 2, BlockBytes: 32}}

	if runKey(bd, []int32{1, 2}, g1) != runKey(bd, []int32{1, 2}, g1) {
		t.Error("identical run requests got different keys")
	}
	distinct := []string{
		runKey(bd, []int32{1, 23}, g1),
		runKey(bd, []int32{12, 3}, g1),
		runKey(bd, []int32{1, 2, 3}, g1),
		runKey(bd, []int32{123}, g1),
		runKey(bd, []int32{-1, 23}, g1),
		runKey(bd, nil, g1),
		runKey(bd, nil, g2),
		runKey(bd, nil, append(g1, g2...)),
		runKey(bd, nil, append(g2, g1...)),
		runKey(bd, nil, nil),
		runKey(bd, nil, []cache.Config{{SizeBytes: 8192, Assoc: 4, BlockBytes: 32, Repl: cache.FIFO}}),
		runKey(bdO, nil, g1),
	}
	seen := map[string]int{}
	for i, k := range distinct {
		if j, dup := seen[k]; dup {
			t.Errorf("key collision between request %d and %d: %q", j, i, k)
		}
		seen[k] = i
	}
	for _, k := range distinct {
		if !strings.HasPrefix(k, "1:x|") {
			t.Errorf("run key missing canonical build prefix: %q", k)
		}
	}
}

// TestCompileSingleflight: concurrent compiles of the same benchmark
// share one computation and one resulting *Build.
func TestCompileSingleflight(t *testing.T) {
	ResetCache()
	b := ByName("147.vortex")
	const n = 8
	results := make([]*Build, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bd, err := CompileISACtx(context.Background(), b, false, "")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = bd
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different build", i)
		}
	}
	bs, _ := CacheStats()
	if bs.Misses != 1 {
		t.Errorf("compiled %d times, want exactly once (stats %+v)", bs.Misses, bs)
	}
	ResetCache()
}

// TestResetCacheDuringWork hammers Compile/Simulate from several
// goroutines while ResetCache fires concurrently: no caller may observe
// an error or a torn result, and the engine must still work afterwards.
// (Run under -race this is the documented-semantics regression test for
// the reset/in-flight interaction.)
func TestResetCacheDuringWork(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations in short mode")
	}
	ctx := context.Background()
	ResetCache()
	b := ByName("147.vortex")
	geoms := []cache.Config{cache.Baseline}
	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 3; i++ {
				bd, err := CompileISACtx(ctx, b, false, "")
				if err != nil {
					t.Error(err)
					return
				}
				run, err := SimulateCtx(ctx, bd, b.Input1, geoms)
				if err != nil {
					t.Error(err)
					return
				}
				// Across a concurrent Reset, run.Build may be a
				// different-but-equivalent *Build than bd (two compile
				// flights for the same content); only content matters.
				if run.Result.Insts == 0 || run.Build.Bench != b || run.Build.Optimize {
					t.Errorf("torn run: insts=%d build=%+v", run.Result.Insts, run.Build)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ResetCache()
				runtime.Gosched()
			}
		}
	}()
	workers.Wait()
	close(stop)
	resetter.Wait()

	// After the dust settles the engine still computes and memoises.
	bd, err := CompileISACtx(ctx, b, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateCtx(ctx, bd, b.Input1, geoms); err != nil {
		t.Fatal(err)
	}
	_, rs := CacheStats()
	if rs.Inflight != 0 {
		t.Errorf("inflight computations leaked: %+v", rs)
	}
	ResetCache()
}
