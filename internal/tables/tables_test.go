package tables

import (
	"context"
	"strings"
	"testing"

	"delinq/internal/baseline"
	"delinq/internal/bench"
	"delinq/internal/classify"
	"delinq/internal/metrics"
)

func TestStdGeomsValid(t *testing.T) {
	for _, g := range StdGeoms {
		if err := g.Validate(); err != nil {
			t.Errorf("geometry %v invalid: %v", g, err)
		}
	}
	if StdGeoms[GeomTraining].Sets() != 256 {
		t.Errorf("training geometry has %d sets, want 256 (Section 6)",
			StdGeoms[GeomTraining].Sets())
	}
	if StdGeoms[GeomBaseline].SizeBytes != 8*1024 {
		t.Error("baseline geometry is not 8KB")
	}
}

func TestByIDUnknown(t *testing.T) {
	for _, id := range []string{"99", "x", "all", "s9", ""} {
		if _, err := ByID(id); err == nil {
			t.Errorf("ByID(%q) succeeded", id)
		}
		if canon, err := CanonicalID(id); err == nil {
			t.Errorf("CanonicalID(%q) = %q, want an error", id, canon)
		}
	}
}

// TestIDsCoverEveryTable: every id of the default sweep, and S4 and S5,
// resolves to itself, and the extension tables also in lower case.
func TestIDsCoverEveryTable(t *testing.T) {
	ids := IDs()
	if len(ids) != 17 { // 14 paper tables + extensions S1-S3
		t.Fatalf("IDs = %v", ids)
	}
	for _, id := range append(ids, "S4", "S5") {
		if canon, err := CanonicalID(id); err != nil || canon != id {
			t.Errorf("CanonicalID(%s) = %q, %v", id, canon, err)
		}
		if lower := strings.ToLower(id); lower != id {
			if canon, err := CanonicalID(lower); err != nil || canon != id {
				t.Errorf("CanonicalID(%s) = %q, %v; want %s", lower, canon, err, id)
			}
		}
	}
}

func TestTable6Static(t *testing.T) {
	tab, err := ByID("6")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 18 {
		t.Errorf("Table 6 rows = %d, want 18", len(tab.Rows))
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 6.", "181.mcf", "input_ref", "Input 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRenderAlignment(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "test",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"veryverylong", "b"}, {"s", "t"}},
		Notes:  "hello",
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	if !strings.HasPrefix(lines[0], "Table x. test") {
		t.Errorf("title line = %q", lines[0])
	}
	// Column 2 must start at the same offset in header and rows.
	h := strings.Index(lines[1], "long-header")
	r := strings.Index(lines[3], "b")
	if h != r {
		t.Errorf("misaligned columns: header at %d, row at %d\n%s", h, r, sb.String())
	}
	if !strings.Contains(sb.String(), "note: hello") {
		t.Error("notes missing")
	}
}

func TestTrainedWeightsSane(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in short mode")
	}
	rep, err := TrainedReport()
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Weights
	// Structural sanity mirrored from the paper: positive weights for
	// the structural classes that fire in the suite, strictly negative
	// frequency classes with AG8 = AG9/2.
	for _, agg := range []classify.AggClass{classify.AG1, classify.AG3, classify.AG4, classify.AG5, classify.AG7} {
		if w[agg] <= 0 {
			t.Errorf("weight %v = %v, want positive", agg, w[agg])
		}
	}
	if w[classify.AG9] >= 0 || w[classify.AG8] >= 0 {
		t.Errorf("frequency weights not negative: AG8=%v AG9=%v",
			w[classify.AG8], w[classify.AG9])
	}
	if diff := w[classify.AG8]*2 - w[classify.AG9]; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("AG8 != AG9/2: %v vs %v", w[classify.AG8], w[classify.AG9])
	}
	// The second training call must be memoised to the same report.
	rep2, err := TrainedReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep != rep2 {
		t.Error("TrainedReport not memoised")
	}
}

// averages loads every benchmark of set as (optimize, input2) on the
// mips engine and returns the mean of each value f computes per run.
func averages(t *testing.T, set []*bench.Benchmark, optimize, input2 bool, f func(*bench.Run) []float64) []float64 {
	t.Helper()
	var sum []float64
	for _, b := range set {
		run, err := Engine{}.Load(context.Background(), b, optimize, input2)
		if err != nil {
			t.Fatal(err)
		}
		vals := f(run)
		if sum == nil {
			sum = make([]float64, len(vals))
		}
		for i, v := range vals {
			sum[i] += v
		}
	}
	for i := range sum {
		sum[i] /= float64(len(set))
	}
	return sum
}

// heuristic returns the mips engine's trained configuration.
func heuristic(t *testing.T, useFreq bool) classify.Config {
	t.Helper()
	cfg, err := Engine{}.HeuristicConfig(context.Background(), useFreq)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in short mode")
	}
	// The paper's headline: ~10% of loads cover >90% of misses, and the
	// baselines need far more loads for the same coverage.
	cfg := heuristic(t, true)
	avg := averages(t, bench.All(), false, false, func(run *bench.Run) []float64 {
		stats := run.Stats(GeomBaseline)
		ev := metrics.Evaluate(run.Delta(cfg), stats)
		okn := metrics.Evaluate(baseline.OKN(run.Build.Loads), stats)
		bdh := metrics.Evaluate(baseline.BDH(run.Build.Prog, run.Build.Loads), stats)
		return []float64{ev.Pi, ev.Rho, okn.Pi, okn.Rho, bdh.Pi, bdh.Rho}
	})
	pi, rho := avg[0], avg[1]
	if pi < 0.03 || pi > 0.20 {
		t.Errorf("average pi = %.1f%%, want roughly 10%%", 100*pi)
	}
	if rho < 0.85 {
		t.Errorf("average rho = %.1f%%, want > 85%%", 100*rho)
	}
	for _, bl := range []struct {
		name    string
		pi, rho float64
	}{{"OKN", avg[2], avg[3]}, {"BDH", avg[4], avg[5]}} {
		if bl.pi < 2*pi {
			t.Errorf("%s average pi = %.1f%%, want at least twice the heuristic's %.1f%%", bl.name, 100*bl.pi, 100*pi)
		}
		if bl.rho < 0.90 {
			t.Errorf("%s average rho = %.1f%%, want >= 90%%", bl.name, 100*bl.rho)
		}
	}
}

// TestCoverageStableShape is the claim of Tables 7-9: the heuristic's
// coverage barely moves with the input, the cache's associativity and
// size, or the optimisation level. Within each table the average-rho
// columns lie within 3 points of each other and at 90 % or above, and
// the unoptimised and -O binaries lie within 5 points of each other on
// the baseline cache.
func TestCoverageStableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in short mode")
	}
	cfg := heuristic(t, true)
	// rhos averages rho over the training benchmarks on each geometry.
	rhos := func(optimize, input2 bool, gis ...int) []float64 {
		return averages(t, bench.Training(), optimize, input2, func(run *bench.Run) []float64 {
			delta := run.Delta(cfg)
			var out []float64
			for _, gi := range gis {
				out = append(out, metrics.Evaluate(delta, run.Stats(gi)).Rho)
			}
			return out
		})
	}
	o0 := rhos(false, false, GeomBaseline)[0]
	input2 := rhos(false, true, GeomBaseline)[0]
	assoc := rhos(true, false, GeomAssoc2, GeomBaseline, GeomAssoc8)
	size := rhos(true, false, GeomBaseline, Geom16K, Geom32K, Geom64K)
	for _, tab := range []struct {
		id   string
		cols []float64
	}{{"7", []float64{o0, input2}}, {"8", assoc}, {"9", size}} {
		lo, hi := tab.cols[0], tab.cols[0]
		for _, rho := range tab.cols {
			lo, hi = min(lo, rho), max(hi, rho)
		}
		if lo < 0.90 || hi-lo > 0.03 {
			t.Errorf("Table %s average rho columns %.1f%%: want all >= 90%% and within 3 points", tab.id, scale(tab.cols))
		}
	}
	if d := o0 - assoc[1]; d > 0.05 || d < -0.05 {
		t.Errorf("baseline-cache rho: -O0 %.1f%%, -O %.1f%%: want within 5 points", 100*o0, 100*assoc[1])
	}
}

// TestFrequencyClassesShape is Table 11's claim: the frequency classes
// AG8/AG9 cut the flagged set about 2-3x at unchanged coverage. Over
// the 18 benchmarks, average pi without them is 2 to 3.5 times average
// pi with them, and average rho moves by at most 1 point.
func TestFrequencyClassesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in short mode")
	}
	with, without := heuristic(t, true), heuristic(t, false)
	avg := averages(t, bench.All(), false, false, func(run *bench.Run) []float64 {
		stats := run.Stats(GeomBaseline)
		evW := metrics.Evaluate(run.Delta(with), stats)
		evN := metrics.Evaluate(run.Delta(without), stats)
		return []float64{evW.Pi, evW.Rho, evN.Pi, evN.Rho}
	})
	if r := avg[2] / avg[0]; r < 2 || r > 3.5 {
		t.Errorf("average pi without AG8/AG9 %.2f%% / with %.2f%% = %.2f, want in [2, 3.5]", 100*avg[2], 100*avg[0], r)
	}
	if d := avg[3] - avg[1]; d > 0.01 || d < -0.01 {
		t.Errorf("average rho with AG8/AG9 %.2f%%, without %.2f%%: want within 1 point", 100*avg[1], 100*avg[3])
	}
}

// TestProfilingCombinedShape is Table 14's claim at epsilon = 0: the
// loads that both profiling (the hotspot blocks covering 90 % of the
// cycles) and the heuristic flag are about 2 % of all loads and cover
// about 90 % of the misses, while as many loads drawn at random from
// the hotspots (rho*, three seeds) cover about 20 %. Averages over the
// 18 benchmarks: pi <= 3 %, rho >= 85 % and rho* <= 35 %.
func TestProfilingCombinedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in short mode")
	}
	cfg := heuristic(t, true)
	avg := averages(t, bench.All(), false, false, func(run *bench.Run) []float64 {
		stats := run.Stats(GeomBaseline)
		hot := metrics.HotspotLoads(run.Build.Prog, run.Result.ExecAt, 0.90)
		both := map[uint32]bool{}
		for pc := range run.Delta(cfg) {
			if hot[pc] {
				both[pc] = true
			}
		}
		ev := metrics.Evaluate(both, stats)
		var rhoStar float64
		for seed := int64(1); seed <= 3; seed++ {
			rhoStar += metrics.Evaluate(metrics.RandomFromHotspots(hot, ev.Selected, seed), stats).Rho / 3
		}
		return []float64{ev.Pi, ev.Rho, rhoStar}
	})
	if avg[0] > 0.03 || avg[1] < 0.85 || avg[2] > 0.35 {
		t.Errorf("epsilon=0: pi %.2f%%, rho %.1f%%, rho* %.1f%%: want pi <= 3%%, rho >= 85%%, rho* <= 35%%",
			100*avg[0], 100*avg[1], 100*avg[2])
	}
}

// scale returns fractions as percentages, for messages.
func scale(fs []float64) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = 100 * f
	}
	return out
}

// TestCrossISAShape is Table S5's claim as an invariant: lowering to
// arm keeps every benchmark's loads one for one, and each load runs and
// misses the baseline cache exactly as often on both machines, so with
// each ISA scored by its own trained weights coverage moves only by
// what the retrained weights flag differently.
func TestCrossISAShape(t *testing.T) {
	if testing.Short() {
		t.Skip("both ISAs' full evaluation in short mode")
	}
	ctx := context.Background()
	engs := []Engine{{ISA: "mips"}, {ISA: "arm"}}
	cfgs := make([]classify.Config, len(engs))
	for k, eng := range engs {
		cfg, err := eng.HeuristicConfig(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[k] = cfg
	}
	for _, b := range bench.All() {
		var runs [2]*bench.Run
		for k, eng := range engs {
			run, err := eng.Load(ctx, b, false, false)
			if err != nil {
				t.Fatal(err)
			}
			runs[k] = run
		}
		mips, arm := runs[0].Stats(GeomBaseline), runs[1].Stats(GeomBaseline)
		if len(mips) != len(arm) {
			t.Errorf("%s: |L| = %d on mips, %d on arm", b.Name, len(mips), len(arm))
			continue
		}
		for i := range mips {
			if mips[i].Exec != arm[i].Exec || mips[i].Misses != arm[i].Misses {
				t.Errorf("%s load %d: E/M = %d/%d on mips, %d/%d on arm",
					b.Name, i, mips[i].Exec, mips[i].Misses, arm[i].Exec, arm[i].Misses)
			}
		}
		rho := func(k int, stats []metrics.LoadStat) float64 {
			return metrics.Evaluate(runs[k].Delta(cfgs[k]), stats).Rho
		}
		if d := rho(0, mips) - rho(1, arm); d > 0.001 || d < -0.001 {
			t.Errorf("%s: rho differs by %.2f points across ISAs", b.Name, 100*d)
		}
	}
}

func TestTable5AgainstPaperStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in short mode")
	}
	tab, err := ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("Table 5 rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if row[0] != classify.AggClass(i+1).String() {
			t.Errorf("row %d class = %s", i, row[0])
		}
	}
}

func TestTable3ListsAllH1Classes(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in short mode")
	}
	tab, err := ByID("3")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != classify.NumH1Classes {
		t.Errorf("Table 3 rows = %d, want %d", len(tab.Rows), classify.NumH1Classes)
	}
}
