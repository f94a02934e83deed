package tables

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/faultinject"
	"delinq/internal/train"
)

// TestPreloadExactlyOnce floods the engine with duplicate combos from
// concurrent Preload pools and asserts the memo layer collapsed them to
// one compile and one simulation per distinct combination.
func TestPreloadExactlyOnce(t *testing.T) {
	bench.ResetCache()
	base := []Combo{
		{Bench: bench.ByName("147.vortex"), Geoms: []cache.Config{cache.Baseline}},
		{Bench: bench.ByName("175.vpr"), Geoms: []cache.Config{cache.Baseline}},
	}
	var combos []Combo
	for i := 0; i < 6; i++ {
		combos = append(combos, base...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Preload(context.Background(), 4, combos); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	bs, rs := bench.CacheStats()
	if bs.Misses != 2 || bs.Errors != 0 {
		t.Errorf("builds: %+v, want exactly 2 misses", bs)
	}
	if rs.Misses != 2 || rs.Errors != 0 || rs.Entries != 2 || rs.Inflight != 0 {
		t.Errorf("runs: %+v, want exactly 2 misses/entries", rs)
	}
	// 3 pools × 12 combos = 36 requests for 2 results: the other 34
	// were answered by joins or hits.
	if rs.Hits+rs.Joined != 34 {
		t.Errorf("runs hits+joined = %d, want 34 (%+v)", rs.Hits+rs.Joined, rs)
	}
	bench.ResetCache()
}

// TestParallelTablesExactlyOnce regenerates several tables from
// concurrent goroutines starting from cold caches and asserts, via the
// memo counters, that every (benchmark, optimize, input) combination
// was compiled and simulated exactly once across the whole run.
func TestParallelTablesExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in short mode")
	}
	bench.ResetCache()
	ResetTraining()
	ids := []string{"1", "2", "7", "10", "12"}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			tab, err := ByID(id)
			if err != nil {
				t.Errorf("table %s: %v", id, err)
				return
			}
			if len(tab.Rows) == 0 {
				t.Errorf("table %s: empty", id)
			}
		}(id)
	}
	wg.Wait()
	bs, rs := bench.CacheStats()
	// These tables touch every benchmark unoptimised (18 builds) and
	// simulate Input 1 for all 18 plus Input 2 for the 11 training
	// benchmarks (Table 7) — 29 distinct runs, regardless of how many
	// goroutines raced to request them.
	if bs.Misses != 18 || bs.Errors != 0 {
		t.Errorf("builds: %+v, want exactly 18 misses", bs)
	}
	if rs.Misses != 29 || rs.Errors != 0 || rs.Entries != 29 {
		t.Errorf("runs: %+v, want exactly 29 misses/entries", rs)
	}
}

// TestTrainingOneFillPerISA: concurrent first callers for two machine
// descriptions share one learning phase per ISA, and every caller of an
// ISA receives that phase's report.
func TestTrainingOneFillPerISA(t *testing.T) {
	if testing.Short() {
		t.Skip("training simulates every training benchmark")
	}
	ResetTraining()
	t.Cleanup(ResetTraining)
	isas := []string{"mips", "arm"}
	reps := make([]*train.Report, 4*len(isas))
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Engine{ISA: isas[i%len(isas)]}.TrainedReport(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}(i)
	}
	wg.Wait()
	st := trained.Stats()
	if st.Misses != uint64(len(isas)) || st.Entries != len(isas) || st.Hits+st.Joined != uint64(len(reps)-len(isas)) {
		t.Errorf("training memo: %+v, want %d fills shared by %d callers", st, len(isas), len(reps))
	}
	for i, rep := range reps {
		if rep == nil || rep != reps[i%len(isas)] {
			t.Errorf("caller %d (%s) got a report of its own", i, isas[i%len(isas)])
		}
	}
}

// TestResetCacheMidPreload calls bench.ResetCache while a Preload pool
// is mid-flight (the satellite regression for the documented Reset
// semantics; meaningful chiefly under -race). Preload must complete
// without error and the engine must still produce correct, memoised
// results afterwards.
func TestResetCacheMidPreload(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in short mode")
	}
	bench.ResetCache()
	combos := []Combo{
		{Bench: bench.ByName("147.vortex"), Geoms: []cache.Config{cache.Baseline}},
		{Bench: bench.ByName("175.vpr"), Geoms: []cache.Config{cache.Baseline}},
		{Bench: bench.ByName("300.twolf"), Geoms: []cache.Config{cache.Baseline}},
	}
	done := make(chan error, 1)
	go func() { done <- Preload(context.Background(), 2, combos) }()
	time.Sleep(30 * time.Millisecond) // land inside some simulation
	bench.ResetCache()
	if err := <-done; err != nil {
		t.Fatalf("preload across reset: %v", err)
	}
	// Re-warm and verify the engine is intact: results memoised anew.
	if err := Preload(context.Background(), 2, combos); err != nil {
		t.Fatal(err)
	}
	_, rs := bench.CacheStats()
	if rs.Entries != len(combos) || rs.Inflight != 0 {
		t.Errorf("post-reset stats: %+v, want %d entries", rs, len(combos))
	}
	bench.ResetCache()
}

// TestRenderAllMatchesSerial renders the full sweep through the
// parallel engine ("all": a concurrent preload, then the serial
// rendering pass) and then every table of IDs one by one on a fresh
// engine, and requires the same bytes and no degradation. (The
// byte-identity guard against the committed golden file lives in the
// root package's TestTableAllGolden.)
func TestRenderAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in short mode")
	}
	ctx := context.Background()
	var all bytes.Buffer
	degs, err := Engine{}.Render(ctx, &all, 0, "all")
	if err != nil {
		t.Fatal(err)
	}
	if len(degs) != 0 {
		t.Errorf("fault-free sweep reported degradations: %v", degs)
	}
	var serial bytes.Buffer
	for _, id := range IDs() {
		if degs, err := (Engine{}).Render(ctx, &serial, 1, id); err != nil || len(degs) != 0 {
			t.Fatalf("table %s: %v, degraded %v", id, err, degs)
		}
	}
	if all.String() != serial.String() {
		t.Error("the parallel sweep and the table-by-table renders differ")
	}
}

// TestJoinedTrainingQuarantines: a render that joins another render's
// learning phase shares its outcome, skipped training benchmarks
// included. With 175.vpr's simulation sabotaged, engine B renders Table
// 5 while engine A's cold training is in flight: B joins it, both
// renders are degraded by 175.vpr, and the memo keeps the remainder
// weights for neither.
func TestJoinedTrainingQuarantines(t *testing.T) {
	if testing.Short() {
		t.Skip("training simulates every training benchmark")
	}
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.SimBudget, "175.vpr")
	withPlan(t, p)
	ResetTraining()
	t.Cleanup(ResetTraining)

	ctx := context.Background()
	type result struct {
		degs []*Degradation
		err  error
	}
	done := make(chan result, 1)
	go func() {
		degs, err := Engine{}.Render(ctx, io.Discard, 0, "5")
		done <- result{degs, err}
	}()
	for deadline := time.Now().Add(time.Minute); trained.Stats().Inflight != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("engine A's learning phase never started")
		}
	}
	degsB, errB := Engine{}.Render(ctx, io.Discard, 0, "5")
	a := <-done

	if st := trained.Stats(); st.Misses != 1 || st.Joined != 1 || st.Entries != 0 {
		t.Errorf("training memo: %+v, want one fill, one join and nothing retained", st)
	}
	for name, r := range map[string]result{"A": a, "B": {degsB, errB}} {
		if r.err != nil {
			t.Errorf("render %s: %v", name, r.err)
		} else if len(r.degs) != 1 || r.degs[0].Benchmark != "175.vpr" {
			t.Errorf("render %s degradations = %v, want 175.vpr", name, r.degs)
		}
	}
}

// TestJoinedTrainingOutlivesLeader: engine B joins engine A's learning
// phase, then A's render is cancelled. B's context is alive, so B does
// not inherit A's cancellation: the phase runs again for B, and B
// renders Table 5 clean, byte for byte what a lone render gives.
func TestJoinedTrainingOutlivesLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("training simulates every training benchmark")
	}
	bench.ResetCache()
	ResetTraining()
	t.Cleanup(ResetTraining)

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := Engine{}.Render(ctxA, io.Discard, 0, "5")
		errA <- err
	}()
	for deadline := time.Now().Add(time.Minute); trained.Stats().Inflight != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("engine A's learning phase never started")
		}
	}
	type result struct {
		out  string
		degs []*Degradation
		err  error
	}
	doneB := make(chan result, 1)
	go func() {
		var buf bytes.Buffer
		degs, err := Engine{}.Render(context.Background(), &buf, 0, "5")
		doneB <- result{buf.String(), degs, err}
	}()
	for deadline := time.Now().Add(time.Minute); trained.Stats().Joined != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("engine B never joined A's learning phase")
		}
	}
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled render A = %v, want context.Canceled", err)
	}
	b := <-doneB
	if b.err != nil || len(b.degs) != 0 {
		t.Fatalf("render B = %v, degraded %v; want a clean render", b.err, b.degs)
	}

	ResetTraining()
	var lone bytes.Buffer
	if degs, err := (Engine{}).Render(context.Background(), &lone, 0, "5"); err != nil || len(degs) != 0 {
		t.Fatalf("lone render: %v, degraded %v", err, degs)
	}
	if b.out != lone.String() {
		t.Errorf("render B differs from a lone render:\n%s\nwant:\n%s", b.out, lone.String())
	}
}

// TestEnginesRenderTwoISAs: a mips and an arm engine render Table 2 at
// once. Neither leaks its machine description into the other: each
// output equals what a fresh engine of the same ISA renders alone
// afterwards, and the mips one is the golden table.
func TestEnginesRenderTwoISAs(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in short mode")
	}
	ctx := context.Background()
	isas := []string{"mips", "arm"}
	outs := make([]string, len(isas))
	var wg sync.WaitGroup
	for i, isaName := range isas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if degs, err := (Engine{ISA: isaName}).Render(ctx, &buf, 0, "2"); err != nil || len(degs) != 0 {
				t.Errorf("%s render: %v, degraded %v", isaName, err, degs)
			}
			outs[i] = buf.String()
		}()
	}
	wg.Wait()
	for i, isaName := range isas {
		var buf bytes.Buffer
		if _, err := (Engine{ISA: isaName}).Render(ctx, &buf, 0, "2"); err != nil {
			t.Fatal(err)
		}
		if outs[i] != buf.String() {
			t.Errorf("%s: concurrent render differs from a lone one:\n%s\nalone:\n%s", isaName, outs[i], buf.String())
		}
	}
	if want := goldenTable(t, "2"); outs[0] != want {
		t.Errorf("mips Table 2 diverges from tables_output.txt:\n%s", outs[0])
	}
	if outs[0] == outs[1] {
		t.Error("the arm engine rendered the mips table")
	}
}
