package tables

import (
	"fmt"

	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/freq"
	"delinq/internal/metrics"
	"delinq/internal/pattern"
)

// tableS1 is this repository's extension experiment, implementing the
// substitution the paper proposes in Section 5.2: using a static
// frequency estimator (Wu-Larus-style loop-depth propagation) instead of
// basic-block profiling for the H5 criterion. Three configurations are
// compared on every benchmark: no frequency classes, statically
// estimated frequency, and the true basic-block profile.
func (r render) tableS1() (*Table, error) {
	t := &Table{
		ID:     "S1",
		Title:  "Extension: static frequency estimation for criterion H5 (pi/rho, %)",
		Header: []string{"Benchmark", "no AG8/9", "static estimate", "profiled"},
		Notes: "unoptimised binaries, Input 1, 8KB baseline cache; estimator: " +
			"loops iterate 1000x, call counts propagate from the entry",
	}
	cfgNone, err := r.heuristic(false)
	if err != nil {
		return nil, err
	}
	cfgFreq, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	pis := make([][]float64, 3)
	rhos := make([][]float64, 3)
	for _, b := range bench.All() {
		ctx, deg := r.load(b, false, false)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		stats := ctx.Stats(GeomBaseline)
		est := freq.Estimate(ctx.Build.Prog)

		evalWith := func(prof classify.ExecProfile, cfg classify.Config) metrics.SetEval {
			return metrics.Evaluate(classify.DeltaSet(classify.Score(ctx.Build.Loads, prof, cfg)), stats)
		}
		evals := []metrics.SetEval{
			evalWith(nil, cfgNone),
			evalWith(est, cfgFreq),
			evalWith(ctx.Run, cfgFreq),
		}
		row := []string{b.Name}
		for k, ev := range evals {
			pis[k] = append(pis[k], ev.Pi)
			rhos[k] = append(rhos[k], ev.Rho)
			row = append(row, fmt.Sprintf("%.1f / %.0f", ev.Pi*100, ev.Rho*100))
		}
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"AVERAGE"}
	for k := 0; k < 3; k++ {
		avgRow = append(avgRow, fmt.Sprintf("%.1f / %.0f", avg(pis[k])*100, avg(rhos[k])*100))
	}
	t.Rows = append(t.Rows, avgRow)
	return t, nil
}

// tableS2 implements the investigation Section 8.6 closes with: "This
// points to the possibility of using a different δ value for different
// benchmarks." For every training benchmark, δ is calibrated on Input 1
// (the smallest π whose coverage stays ≥ 95 %) and then evaluated on
// Input 2, next to the fixed δ = 0.10.
func (r render) tableS2() (*Table, error) {
	t := &Table{
		ID:    "S2",
		Title: "Extension: per-benchmark delinquency thresholds (Section 8.6)",
		Header: []string{"Benchmark", "delta*", "fixed d=0.10 (pi/rho)",
			"calibrated (pi/rho)"},
		Notes: "delta* chosen on Input 1 (min pi with rho >= 95%), evaluated on Input 2; " +
			"unoptimised binaries, 8KB baseline cache",
	}
	base, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	grid := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50, 0.65, 0.80, 1.00, 1.25}
	var fixedPi, fixedRho, calPi, calRho []float64
	for _, b := range bench.Training() {
		ctx1, deg := r.load(b, false, false)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		stats1 := ctx1.Stats(GeomBaseline)
		best := 0.10
		bestPi := 2.0
		for _, d := range grid {
			cfg := base
			cfg.Delta = d
			ev := metrics.Evaluate(ctx1.Delta(cfg), stats1)
			if ev.Rho >= 0.95 && ev.Pi < bestPi {
				best, bestPi = d, ev.Pi
			}
		}
		ctx2, deg := r.load(b, false, true)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		stats2 := ctx2.Stats(GeomBaseline)
		cfgF := base
		cfgF.Delta = 0.10
		evF := metrics.Evaluate(ctx2.Delta(cfgF), stats2)
		cfgC := base
		cfgC.Delta = best
		evC := metrics.Evaluate(ctx2.Delta(cfgC), stats2)
		fixedPi = append(fixedPi, evF.Pi)
		fixedRho = append(fixedRho, evF.Rho)
		calPi = append(calPi, evC.Pi)
		calRho = append(calRho, evC.Rho)
		t.Rows = append(t.Rows, []string{
			b.Name,
			fmt.Sprintf("%.2f", best),
			fmt.Sprintf("%.1f / %.0f", evF.Pi*100, evF.Rho*100),
			fmt.Sprintf("%.1f / %.0f", evC.Pi*100, evC.Rho*100),
		})
	}
	t.Rows = append(t.Rows, []string{
		"AVERAGE", "",
		fmt.Sprintf("%.1f / %.0f", avg(fixedPi)*100, avg(fixedRho)*100),
		fmt.Sprintf("%.1f / %.0f", avg(calPi)*100, avg(calRho)*100),
	})
	return t, nil
}

// tableS4 compares the paper's flat per-function pattern analysis with
// the interprocedural summary pipeline on every benchmark: the same
// heuristic and threshold, but Ret leaves resolved through callee
// return summaries and Param leaves through caller argument patterns.
// Cross-call pointer chases gain dereference classes (AG4-AG6), so the
// selected set and its coverage can only move where calls hide address
// structure. Rendered on demand (`delinq table S4`); not part of the
// default sweep so the paper-table golden stays byte-identical.
func (r render) tableS4() (*Table, error) {
	t := &Table{
		ID:    "S4",
		Title: "Extension: interprocedural function summaries (pi/rho, %)",
		Header: []string{"Benchmark", "O0 intra", "O0 inter",
			"O intra", "O inter"},
		Notes: "Input 1, 8KB baseline cache; inter = Ret/Param leaves resolved " +
			"through call-graph summaries, same weights and delta",
	}
	cfg, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	pis := make([][]float64, 4)
	rhos := make([][]float64, 4)
	for _, b := range bench.All() {
		var evs []metrics.SetEval
		var deg *Degradation
		for _, optimize := range []bool{false, true} {
			var ctx *Ctx
			if ctx, deg = r.load(b, optimize, false); deg != nil {
				break
			}
			var inter []*pattern.Load
			if inter, deg = r.loadsInter(ctx.Build); deg != nil {
				break
			}
			stats := ctx.Stats(GeomBaseline)
			for _, loads := range [][]*pattern.Load{ctx.Build.Loads, inter} {
				evs = append(evs, metrics.Evaluate(classify.DeltaSet(classify.Score(loads, ctx.Run, cfg)), stats))
			}
		}
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		row := []string{b.Name}
		for col, ev := range evs {
			pis[col] = append(pis[col], ev.Pi)
			rhos[col] = append(rhos[col], ev.Rho)
			row = append(row, fmt.Sprintf("%.1f / %.0f", ev.Pi*100, ev.Rho*100))
		}
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"AVERAGE"}
	for k := 0; k < 4; k++ {
		avgRow = append(avgRow, fmt.Sprintf("%.1f / %.0f", avg(pis[k])*100, avg(rhos[k])*100))
	}
	t.Rows = append(t.Rows, avgRow)
	return t, nil
}

// tableS5 is the cross-ISA comparison: every benchmark compiled once,
// then lowered to each machine description (the native mips encoding
// and the two-operand arm backend), analysed and simulated per ISA, and
// evaluated with weights retrained on that ISA's own training set. The
// two backends expose the same address structure through different
// instruction idioms (gp-relative vs movw/movt absolute globals,
// post-indexed pointer walks), so the heuristic's π/ρ should land in
// the same band on both — that stability is what the table
// demonstrates. Rendered on demand (`delinq table S5`); not part of
// the default sweep so the paper-table golden stays byte-identical.
func (r render) tableS5() (*Table, error) {
	isas := []string{"mips", "arm"}
	t := &Table{
		ID:    "S5",
		Title: "Extension: heuristic stability across machine descriptions (pi/rho, %)",
		Header: []string{"Benchmark", "mips |L|", "mips pi/rho",
			"arm |L|", "arm pi/rho"},
		Notes: "unoptimised binaries, Input 1, 8KB baseline cache; each ISA " +
			"evaluated with weights retrained on its own lowered training set",
	}
	cfgs := make([]classify.Config, len(isas))
	for k, isaName := range isas {
		cfg, err := r.on(isaName).heuristic(true)
		if err != nil {
			return nil, err
		}
		cfgs[k] = cfg
	}
	pis := make([][]float64, len(isas))
	rhos := make([][]float64, len(isas))
	for _, b := range bench.All() {
		row := []string{b.Name}
		var deg *Degradation
		for k, isaName := range isas {
			var ctx *Ctx
			ctx, deg = r.on(isaName).load(b, false, false)
			if deg != nil {
				break
			}
			ev := metrics.Evaluate(ctx.Delta(cfgs[k]), ctx.Stats(GeomBaseline))
			pis[k] = append(pis[k], ev.Pi)
			rhos[k] = append(rhos[k], ev.Rho)
			row = append(row,
				fmt.Sprintf("%d", len(ctx.Build.Loads)),
				fmt.Sprintf("%.1f / %.0f", ev.Pi*100, ev.Rho*100))
		}
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"AVERAGE"}
	for k := range isas {
		avgRow = append(avgRow, "",
			fmt.Sprintf("%.1f / %.0f", avg(pis[k])*100, avg(rhos[k])*100))
	}
	t.Rows = append(t.Rows, avgRow)
	return t, nil
}

// BlockGeoms are the geometries of the block-size stability sweep
// (Table S3).
var BlockGeoms = []cache.Config{
	{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 16},
	{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32},
	{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 64},
}

// tableS3 checks the heuristic's stability against cache *block size* —
// the dimension that forced the authors to drop constant-offset checks
// from criterion H2 ("we could not come up with a constant that was
// stable across different cache configurations of different block
// sizes"). The final heuristic should be stable here by construction.
func (r render) tableS3() (*Table, error) {
	return r.geomTable(&Table{
		ID:     "S3",
		Title:  "Extension: coverage across cache block sizes",
		Header: []string{"Benchmark", "pi", "16B rho", "32B rho", "64B rho"},
		Notes:  "unoptimised binaries, Input 1, 8KB/4-way caches",
	}, Combo{Geoms: BlockGeoms}, []int{0, 1, 2})
}
