package tables

import (
	"fmt"

	"delinq/internal/baseline"
	"delinq/internal/bench"
	"delinq/internal/classify"
	"delinq/internal/metrics"
)

// table7 reproduces "Performance on different inputs": π/ρ of the
// heuristic on the eleven training benchmarks under both input sets.
func (r render) table7() (*Table, error) {
	t := &Table{
		ID:     "7",
		Title:  "Performance on different inputs",
		Header: []string{"Benchmark", "Input 1 pi/rho", "Input 2 pi/rho"},
		Notes:  "unoptimised binaries, 8KB/4-way baseline cache, trained weights, delta=0.10",
	}
	cfg, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	cell := func(pi, rho float64) string { return pct(pi) + " / " + pct(rho) }
	mean := r.rows(t, bench.Training(), Combo{Geoms: StdGeoms}, func(run *bench.Run) ([]string, []float64, *Degradation) {
		run2, deg := r.run(Combo{Bench: run.Build.Bench, Input2: true, Geoms: StdGeoms})
		if deg != nil {
			return nil, nil, deg
		}
		var cells []string
		var vals []float64
		for _, run := range []*bench.Run{run, run2} {
			ev := metrics.Evaluate(run.Delta(cfg), run.Stats(GeomBaseline))
			cells = append(cells, cell(ev.Pi, ev.Rho))
			vals = append(vals, ev.Pi, ev.Rho)
		}
		return cells, vals, nil
	})
	t.Rows = append(t.Rows, []string{"AVERAGE", cell(mean(0), mean(1)), cell(mean(2), mean(3))})
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
// per training benchmark, run as the combo shape, Δ's π and then its ρ
// on each geometry index of gis, and an AVERAGE row. Δ is scored once
// per benchmark, since only ρ depends on the geometry.
func (r render) geomTable(t *Table, shape Combo, gis []int) (*Table, error) {
	cfg, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	mean := r.rows(t, bench.Training(), shape, func(run *bench.Run) ([]string, []float64, *Degradation) {
		delta := run.Delta(cfg)
		var vals []float64
		for k, gi := range gis {
			ev := metrics.Evaluate(delta, run.Stats(gi))
			if k == 0 {
				vals = append(vals, ev.Pi)
			}
			vals = append(vals, ev.Rho)
		}
		var cells []string
		for _, v := range vals {
			cells = append(cells, pct(v))
		}
		return cells, vals, nil
	})
	avgRow := []string{"AVERAGE"}
	for k := 0; k <= len(gis); k++ {
		avgRow = append(avgRow, pct(mean(k)))
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
	cfg, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	mean := r.rows(t, bench.Test(), Combo{Geoms: StdGeoms}, func(run *bench.Run) ([]string, []float64, *Degradation) {
		ev := metrics.Evaluate(run.Delta(cfg), run.Stats(GeomBaseline))
		return []string{fmt.Sprintf("%d / %d (%s)", ev.Selected, ev.Loads, pct2(ev.Pi)), pct(ev.Rho)},
			[]float64{ev.Pi, ev.Rho}, nil
	})
	t.Rows = append(t.Rows, []string{"AVERAGE", pct2(mean(0)), pct2(mean(1))})
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
	cfgF, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	cfgN, err := r.heuristic(false)
	if err != nil {
		return nil, err
	}
	mean := r.rows(t, bench.All(), Combo{Geoms: StdGeoms}, func(run *bench.Run) ([]string, []float64, *Degradation) {
		stats := run.Stats(GeomBaseline)
		deltaF := run.Delta(cfgF)
		evF := metrics.Evaluate(deltaF, stats)
		xi := metrics.Xi(deltaF, metrics.IdealSet(stats, evF.Rho), stats)
		evN := metrics.Evaluate(run.Delta(cfgN), stats)
		return []string{pct2(evF.Pi), pct(evF.Rho), pct(xi), pct2(evN.Pi), pct(evN.Rho)},
			[]float64{evF.Pi, evF.Rho, xi, evN.Pi, evN.Rho}, nil
	})
	t.Rows = append(t.Rows, []string{"AVERAGE", pct2(mean(0)), pct2(mean(1)), pct2(mean(2)), pct2(mean(3)), pct2(mean(4))})
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
	mean := r.rows(t, bench.All(), Combo{Geoms: StdGeoms}, func(run *bench.Run) ([]string, []float64, *Degradation) {
		stats := run.Stats(GeomBaseline)
		okn := metrics.Evaluate(baseline.OKN(run.Build.Loads), stats)
		bdh := metrics.Evaluate(baseline.BDH(run.Build.Prog, run.Build.Loads), stats)
		return []string{pct2(okn.Pi), pct(okn.Rho), pct2(bdh.Pi), pct(bdh.Rho)},
			[]float64{okn.Pi, okn.Rho, bdh.Pi, bdh.Rho}, nil
	})
	t.Rows = append(t.Rows, []string{"AVERAGE", pct2(mean(0)), pct2(mean(1)), pct2(mean(2)), pct2(mean(3))})
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
	cfg, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	mean := r.rows(t, bench.Training(), Combo{Optimize: true, Geoms: StdGeoms}, func(run *bench.Run) ([]string, []float64, *Degradation) {
		stats := run.Stats(Geom16K)
		var cells []string
		var vals []float64
		for _, d := range deltas {
			cfg := cfg
			cfg.Delta = d
			ev := metrics.Evaluate(run.Delta(cfg), stats)
			cells = append(cells, pair(0, ev.Pi, ev.Rho))
			vals = append(vals, ev.Pi, ev.Rho)
		}
		return cells, vals, nil
	})
	t.Rows = append(t.Rows, averagePairs(0, len(deltas), mean))
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
	cfg, err := r.heuristic(true)
	if err != nil {
		return nil, err
	}
	mean := r.rows(t, bench.All(), Combo{Geoms: StdGeoms}, func(run *bench.Run) ([]string, []float64, *Degradation) {
		stats := run.Stats(GeomBaseline)
		hot := metrics.HotspotLoads(run.Build.Prog, run.Result.ExecAt, 0.90)
		scored := classify.Score(run.Build.Loads, run, cfg)
		scores := map[uint32]float64{}
		for _, s := range scored {
			scores[s.Load.PC] = s.Phi
		}
		heur := classify.DeltaSet(scored)
		scoreFn := func(pc uint32) float64 { return scores[pc] }

		var cells []string
		var vals []float64
		var rhoStar float64
		for k, e := range eps {
			ev := metrics.Evaluate(metrics.Combine(hot, heur, scoreFn, e), stats)
			cells = append(cells, pair(2, ev.Pi, ev.Rho))
			vals = append(vals, ev.Pi, ev.Rho)
			if k == 0 {
				// ρ*: random loads from the hotspots, same count.
				for seed := int64(1); seed <= 3; seed++ {
					rand := metrics.RandomFromHotspots(hot, ev.Selected, seed)
					rhoStar += metrics.Evaluate(rand, stats).Rho
				}
				rhoStar /= 3
			}
		}
		cells[0] += fmt.Sprintf(" / %.0f", rhoStar*100)
		return cells, append(vals, rhoStar), nil
	})
	avgRow := averagePairs(2, len(eps), mean)
	avgRow[1] += fmt.Sprintf(" / %.0f", mean(2*len(eps))*100)
	t.Rows = append(t.Rows, avgRow)
	return t, nil
}
