package tables

import (
	"fmt"

	"delinq/internal/baseline"
	"delinq/internal/bench"
	"delinq/internal/classify"
	"delinq/internal/metrics"
)

// piRho evaluates the heuristic's Δ on one geometry.
func (r render) piRho(ctx *Ctx, gi int, useFreq bool) (metrics.SetEval, error) {
	cfg, err := r.heuristic(useFreq)
	if err != nil {
		return metrics.SetEval{}, err
	}
	return metrics.Evaluate(ctx.Delta(cfg), ctx.Stats(gi)), nil
}

// table7 reproduces "Performance on different inputs": π/ρ of the
// heuristic on the eleven training benchmarks under both input sets.
func (r render) table7() (*Table, error) {
	t := &Table{
		ID:     "7",
		Title:  "Performance on different inputs",
		Header: []string{"Benchmark", "Input 1 pi/rho", "Input 2 pi/rho"},
		Notes:  "unoptimised binaries, 8KB/4-way baseline cache, trained weights, delta=0.10",
	}
	var pi1, rho1, pi2, rho2 []float64
	for _, b := range bench.Training() {
		c1, deg := r.load(b, false, false)
		var c2 *Ctx
		if deg == nil {
			c2, deg = r.load(b, false, true)
		}
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		e1, err := r.piRho(c1, GeomBaseline, true)
		if err != nil {
			return nil, err
		}
		e2, err := r.piRho(c2, GeomBaseline, true)
		if err != nil {
			return nil, err
		}
		pi1 = append(pi1, e1.Pi)
		rho1 = append(rho1, e1.Rho)
		pi2 = append(pi2, e2.Pi)
		rho2 = append(rho2, e2.Rho)
		t.Rows = append(t.Rows, []string{
			b.Name,
			fmt.Sprintf("%s / %s", pct(e1.Pi), pct(e1.Rho)),
			fmt.Sprintf("%s / %s", pct(e2.Pi), pct(e2.Rho)),
		})
	}
	t.Rows = append(t.Rows, []string{
		"AVERAGE",
		fmt.Sprintf("%s / %s", pct(avg(pi1)), pct(avg(rho1))),
		fmt.Sprintf("%s / %s", pct(avg(pi2)), pct(avg(rho2))),
	})
	return t, nil
}

// table8 reproduces "Performance of heuristic on different
// associativities of the cache": optimised binaries, 8 KB caches with
// 2/4/8 ways.
func (r render) table8() (*Table, error) {
	return r.geomTable(&Table{
		ID:     "8",
		Title:  "Performance on different cache associativities",
		Header: []string{"Benchmark", "pi", "Assoc 2 rho", "Assoc 4 rho", "Assoc 8 rho"},
		Notes:  "optimised (-O) binaries, Input 1, 8KB/32B caches",
	}, Combo{Optimize: true, Geoms: StdGeoms}, []int{GeomAssoc2, GeomBaseline, GeomAssoc8})
}

// table9 reproduces the cache-size sweep: optimised binaries on 8, 16,
// 32 and 64 KB 4-way caches.
func (r render) table9() (*Table, error) {
	return r.geomTable(&Table{
		ID:     "9",
		Title:  "Performance on different cache sizes",
		Header: []string{"Benchmark", "pi", "8k rho", "16k rho", "32k rho", "64k rho"},
		Notes:  "optimised (-O) binaries, Input 1, 4-way/32B caches",
	}, Combo{Optimize: true, Geoms: StdGeoms}, []int{GeomBaseline, Geom16K, Geom32K, Geom64K})
}

// geomTable fills t with the heuristic's stability across geometries:
// per training benchmark, run as the combo shape (its Bench is set per
// row), Δ's π and then its ρ on each geometry index of gis, and an
// AVERAGE row. Δ is scored once per benchmark, since only ρ depends on
// the geometry. A degraded benchmark gets a DEGRADED row.
func (r render) geomTable(t *Table, shape Combo, gis []int) (*Table, error) {
	cfg, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	var pis []float64
	rhos := make([][]float64, len(gis))
	for _, b := range bench.Training() {
		cb := shape
		cb.Bench = b
		run, deg := r.run(cb)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		delta := classify.DeltaSet(classify.Score(run.Build.Loads, run, cfg))
		row := []string{b.Name}
		for k, gi := range gis {
			ev := metrics.Evaluate(delta, run.LoadStats(run.Build.Loads, gi))
			if k == 0 {
				pis = append(pis, ev.Pi)
				row = append(row, pct(ev.Pi))
			}
			rhos[k] = append(rhos[k], ev.Rho)
			row = append(row, pct(ev.Rho))
		}
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"AVERAGE", pct(avg(pis))}
	for k := range gis {
		avgRow = append(avgRow, pct(avg(rhos[k])))
	}
	t.Rows = append(t.Rows, avgRow)
	return t, nil
}

// table10 reproduces "Performance of the heuristic function on a new set
// of benchmarks": the seven held-out programs.
func (r render) table10() (*Table, error) {
	t := &Table{
		ID:     "10",
		Title:  "Performance on the held-out benchmarks",
		Header: []string{"Benchmark", "|D| / |Lambda| (pi)", "rho"},
		Notes:  "unoptimised binaries, Input 1, 8KB baseline cache, weights trained on the other 11",
	}
	var pis, rhos []float64
	for _, b := range bench.Test() {
		ctx, deg := r.load(b, false, false)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		ev, err := r.piRho(ctx, GeomBaseline, true)
		if err != nil {
			return nil, err
		}
		pis = append(pis, ev.Pi)
		rhos = append(rhos, ev.Rho)
		t.Rows = append(t.Rows, []string{
			b.Name,
			fmt.Sprintf("%d / %d (%s)", ev.Selected, ev.Loads, pct2(ev.Pi)),
			pct(ev.Rho),
		})
	}
	t.Rows = append(t.Rows, []string{"AVERAGE", pct2(avg(pis)), pct2(avg(rhos))})
	return t, nil
}

// table11 reproduces the performance summary: π, ρ and the dynamic
// false-positive measure ξ with the frequency classes, and π, ρ without
// them (the purely static AG1-AG7 heuristic).
func (r render) table11() (*Table, error) {
	t := &Table{
		ID:    "11",
		Title: "Performance summary of the heuristic method",
		Header: []string{"Benchmark", "pi (AG8/9)", "rho (AG8/9)", "xi",
			"pi (no AG8/9)", "rho (no AG8/9)"},
		Notes: "unoptimised binaries, Input 1, 8KB baseline cache",
	}
	var pi1, rho1, xis, pi2, rho2 []float64
	for _, b := range bench.All() {
		ctx, deg := r.load(b, false, false)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		stats := ctx.Stats(GeomBaseline)

		cfgF, err := r.heuristic(true)
		if err != nil {
			return nil, err
		}
		deltaF := ctx.Delta(cfgF)
		evF := metrics.Evaluate(deltaF, stats)
		ideal := metrics.IdealSet(stats, evF.Rho)
		xi := metrics.Xi(deltaF, ideal, stats)

		cfgN, err := r.heuristic(false)
		if err != nil {
			return nil, err
		}
		evN := metrics.Evaluate(ctx.Delta(cfgN), stats)

		pi1 = append(pi1, evF.Pi)
		rho1 = append(rho1, evF.Rho)
		xis = append(xis, xi)
		pi2 = append(pi2, evN.Pi)
		rho2 = append(rho2, evN.Rho)
		t.Rows = append(t.Rows, []string{
			b.Name, pct2(evF.Pi), pct(evF.Rho), pct(xi), pct2(evN.Pi), pct(evN.Rho),
		})
	}
	t.Rows = append(t.Rows, []string{
		"AVERAGE", pct2(avg(pi1)), pct2(avg(rho1)), pct2(avg(xis)),
		pct2(avg(pi2)), pct2(avg(rho2)),
	})
	return t, nil
}

// table12 reproduces the comparison with the OKN and BDH methods.
func (r render) table12() (*Table, error) {
	t := &Table{
		ID:     "12",
		Title:  "Performance of the OKN and BDH methods",
		Header: []string{"Benchmark", "OKN pi", "OKN rho", "BDH pi", "BDH rho"},
		Notes:  "same unoptimised binaries and 8KB baseline cache as Table 11",
	}
	var oPi, oRho, bPi, bRho []float64
	for _, b := range bench.All() {
		ctx, deg := r.load(b, false, false)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		stats := ctx.Stats(GeomBaseline)
		okn := metrics.Evaluate(baseline.OKN(ctx.Build.Loads), stats)
		bdh := metrics.Evaluate(baseline.BDH(ctx.Build.Prog, ctx.Build.Loads), stats)
		oPi = append(oPi, okn.Pi)
		oRho = append(oRho, okn.Rho)
		bPi = append(bPi, bdh.Pi)
		bRho = append(bRho, bdh.Rho)
		t.Rows = append(t.Rows, []string{
			b.Name, pct2(okn.Pi), pct(okn.Rho), pct2(bdh.Pi), pct(bdh.Rho),
		})
	}
	t.Rows = append(t.Rows, []string{
		"AVERAGE", pct2(avg(oPi)), pct2(avg(oRho)), pct2(avg(bPi)), pct2(avg(bRho)),
	})
	return t, nil
}

// table13 reproduces the delinquency-threshold sweep: δ from 0.10 to
// 0.40 on optimised binaries with a 16 KB cache.
func (r render) table13() (*Table, error) {
	deltas := []float64{0.10, 0.20, 0.30, 0.40}
	t := &Table{
		ID:     "13",
		Title:  "Varying the delinquency threshold (pi/rho, %)",
		Header: []string{"Benchmark", "d=0.10", "d=0.20", "d=0.30", "d=0.40"},
		Notes:  "optimised (-O) binaries, Input 1, 16KB/4-way cache",
	}
	pis := make([][]float64, len(deltas))
	rhos := make([][]float64, len(deltas))
	for _, b := range bench.Training() {
		ctx, deg := r.load(b, true, false)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		stats := ctx.Stats(Geom16K)
		row := []string{b.Name}
		for k, d := range deltas {
			cfg, err := r.heuristic(true)
			if err != nil {
				return nil, err
			}
			cfg.Delta = d
			ev := metrics.Evaluate(ctx.Delta(cfg), stats)
			pis[k] = append(pis[k], ev.Pi)
			rhos[k] = append(rhos[k], ev.Rho)
			row = append(row, fmt.Sprintf("%.0f / %.0f", ev.Pi*100, ev.Rho*100))
		}
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"AVERAGE"}
	for k := range deltas {
		avgRow = append(avgRow, fmt.Sprintf("%.0f / %.0f", avg(pis[k])*100, avg(rhos[k])*100))
	}
	t.Rows = append(t.Rows, avgRow)
	return t, nil
}

// table14 reproduces the combination with profiling: the ε-factor sweep,
// including the ρ* random baseline at ε = 0 (average of three seeded
// draws).
func (r render) table14() (*Table, error) {
	eps := []float64{0, 0.10, 0.20, 0.30}
	t := &Table{
		ID:     "14",
		Title:  "Varying the epsilon factor (pi/rho, %; rho* at eps=0)",
		Header: []string{"Benchmark", "e=0 (pi/rho/rho*)", "e=0.10", "e=0.20", "e=0.30"},
		Notes:  "unoptimised binaries, Input 1, 8KB baseline cache; rho* = random same-size hotspot pick, 3-seed average",
	}
	pis := make([][]float64, len(eps))
	rhos := make([][]float64, len(eps))
	var rhoStars []float64
	cfg, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	for _, b := range bench.All() {
		ctx, deg := r.load(b, false, false)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		stats := ctx.Stats(GeomBaseline)
		hot := metrics.HotspotLoads(ctx.Build.Prog, ctx.Run.Result.ExecAt, 0.90)
		heur := ctx.Delta(cfg)
		scores := ctx.Scores(cfg)
		scoreFn := func(pc uint32) float64 { return scores[pc] }

		row := []string{b.Name}
		for k, e := range eps {
			set := metrics.Combine(hot, heur, scoreFn, e)
			ev := metrics.Evaluate(set, stats)
			pis[k] = append(pis[k], ev.Pi)
			rhos[k] = append(rhos[k], ev.Rho)
			if k == 0 {
				// ρ*: random loads from the hotspots, same count.
				var rs float64
				for seed := int64(1); seed <= 3; seed++ {
					rand := metrics.RandomFromHotspots(hot, ev.Selected, seed)
					rs += metrics.Evaluate(rand, stats).Rho
				}
				rs /= 3
				rhoStars = append(rhoStars, rs)
				row = append(row, fmt.Sprintf("%.2f / %.0f / %.0f",
					ev.Pi*100, ev.Rho*100, rs*100))
			} else {
				row = append(row, fmt.Sprintf("%.2f / %.0f", ev.Pi*100, ev.Rho*100))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"AVERAGE"}
	for k := range eps {
		if k == 0 {
			avgRow = append(avgRow, fmt.Sprintf("%.2f / %.0f / %.0f",
				avg(pis[k])*100, avg(rhos[k])*100, avg(rhoStars)*100))
		} else {
			avgRow = append(avgRow, fmt.Sprintf("%.2f / %.0f", avg(pis[k])*100, avg(rhos[k])*100))
		}
	}
	t.Rows = append(t.Rows, avgRow)
	return t, nil
}
