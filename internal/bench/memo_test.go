package bench

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"delinq/internal/cache"
	"delinq/internal/rescache"
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

// gateCtx is a leader's context that ends while its fill runs: the
// fill's first cancellation check (pattern analysis, at a function
// boundary) parks until gate closes, and then reports cancellation.
type gateCtx struct {
	context.Context
	gate chan struct{}
}

func (c gateCtx) Done() <-chan struct{} { return c.gate }

func (c gateCtx) Err() error {
	<-c.gate
	return context.Canceled
}

// TestJoinedBuildOutlivesLeader: caller B joins caller A's build of a
// benchmark, then A's context ends mid-fill. B's context is alive, so B
// does not inherit A's cancellation: it builds the benchmark itself.
func TestJoinedBuildOutlivesLeader(t *testing.T) {
	ResetCache()
	t.Cleanup(ResetCache)
	b := ByName("181.mcf")
	ctxA := gateCtx{context.Background(), make(chan struct{})}
	errA := make(chan error, 1)
	go func() {
		_, err := CompileISACtx(ctxA, b, false, "")
		errA <- err
	}()
	waitBuilds := func(cond func(st rescache.Stats) bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
			if st, _ := CacheStats(); cond(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("build memo never reached the expected state")
			}
		}
	}
	waitBuilds(func(st rescache.Stats) bool { return st.Inflight == 1 })
	type result struct {
		bd  *Build
		err error
	}
	doneB := make(chan result, 1)
	go func() {
		bd, err := CompileISACtx(context.Background(), b, false, "")
		doneB <- result{bd, err}
	}()
	waitBuilds(func(st rescache.Stats) bool { return st.Joined == 1 })
	close(ctxA.gate)

	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Errorf("caller A = %v, want its own cancellation", err)
	}
	r := <-doneB
	if r.err != nil || r.bd == nil || len(r.bd.Loads) == 0 {
		t.Fatalf("joined caller B = (%v, %v), want a build", r.bd, r.err)
	}
	if st, _ := CacheStats(); st.Misses != 2 || st.Joined != 0 || st.Entries != 1 {
		t.Errorf("build memo %+v, want 2 fills, no join and B's build retained", st)
	}
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
