package tables

import (
	"fmt"

	"delinq/internal/bench"
	"delinq/internal/classify"
	"delinq/internal/metrics"
)

// table1 reproduces "Use of profiling in identifying delinquent loads":
// for every benchmark, the static load count Λ, the ideal set reaching
// the same coverage, the profiling hotspot set Δ_P (blocks covering 90 %
// of compute cycles), and its coverage ρ.
func (r render) table1() (*Table, error) {
	t := &Table{
		ID:     "1",
		Title:  "Use of profiling in identifying delinquent loads",
		Header: []string{"Benchmark", "Lambda", "Ideal |D|(pi)", "Profiling |D|(pi)", "rho"},
		Notes:  "unoptimised binaries, Input 1, 8KB/4-way/32B D-cache; hotspot = blocks covering 90% of cycles",
	}
	var idealPis, profPis, rhos []float64
	for _, b := range bench.All() {
		ctx, deg := r.load(b, false, false)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		stats := ctx.Stats(GeomBaseline)
		hot := metrics.HotspotLoads(ctx.Build.Prog, ctx.Run.Result.ExecAt, 0.90)
		ev := metrics.Evaluate(hot, stats)
		ideal := metrics.IdealSet(stats, ev.Rho)
		idealPi := float64(len(ideal)) / float64(len(stats))
		idealPis = append(idealPis, idealPi)
		profPis = append(profPis, ev.Pi)
		rhos = append(rhos, ev.Rho)
		t.Rows = append(t.Rows, []string{
			b.Name,
			fmt.Sprint(len(stats)),
			fmt.Sprintf("%d (%s)", len(ideal), pct2(idealPi)),
			fmt.Sprintf("%d (%s)", ev.Selected, pct2(ev.Pi)),
			pct(ev.Rho),
		})
	}
	t.Rows = append(t.Rows, []string{
		"AVERAGE", "", pct2(avg(idealPis)), pct2(avg(profPis)), pct1(avg(rhos)),
	})
	return t, nil
}

// table2 reproduces "Typical runtime characteristics of the SPEC
// benchmarks we used".
func (r render) table2() (*Table, error) {
	t := &Table{
		ID:     "2",
		Title:  "Runtime characteristics of the benchmarks",
		Header: []string{"Benchmark", "Instr executed", "L1 D accesses", "L1 D misses"},
		Notes:  "unoptimised binaries, Input 1, 8KB/4-way/32B D-cache; misses include stores (write-allocate)",
	}
	for _, b := range bench.All() {
		ctx, deg := r.load(b, false, false)
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		st := ctx.Run.Caches[GeomBaseline].Stats()
		t.Rows = append(t.Rows, []string{
			b.Name,
			sci(float64(ctx.Run.Result.Insts)),
			sci(float64(st.Accesses)),
			sci(float64(st.Misses)),
		})
	}
	return t, nil
}

// table3 reproduces "Criteria H1 applied to the eleven training
// benchmarks": for each of the fifteen register-usage classes, how many
// benchmarks contain it and in how many it is relevant.
func (r render) table3() (*Table, error) {
	rep, err := r.trainedReport()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "3",
		Title:  "Criteria H1 applied to the eleven training benchmarks",
		Header: []string{"Class", "Feature", "Found in", "Relevant in"},
		Notes:  "training geometry 32KB/4-way/32B (256 sets), unoptimised binaries, Input 1",
	}
	for i := 1; i <= classify.NumH1Classes; i++ {
		cr, ok := rep.ClassByID(classify.ClassID{Crit: classify.H1, Idx: i})
		if !ok {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i),
			classify.H1Feature(i),
			fmt.Sprintf("%d benchmarks", cr.FoundIn),
			fmt.Sprintf("%d benchmarks", cr.RelevantIn),
		})
	}
	return t, nil
}

// table4 reproduces the m_j/n_j listing for H1 class 5 ("sp=1, gp=1")
// over the benchmarks in which the class appears.
func (r render) table4() (*Table, error) {
	rep, err := r.trainedReport()
	if err != nil {
		return nil, err
	}
	cr, ok := rep.ClassByID(classify.ClassID{Crit: classify.H1, Idx: 5})
	if !ok {
		return nil, fmt.Errorf("tables: H1 class 5 missing from training report")
	}
	t := &Table{
		ID:     "4",
		Title:  "m_j and n_j values of class 5 'sp=1, gp=1' of criteria H1",
		Header: []string{"Benchmark", "m_j(F5,C) (%)", "n_j(F5,C) (%)", "relevant"},
	}
	for _, st := range cr.PerBench {
		if !st.Found {
			continue
		}
		rel := "no"
		if st.Relevant {
			rel = "yes"
		}
		t.Rows = append(t.Rows, []string{
			st.Bench, pct2(st.M), pct2(st.N), rel,
		})
	}
	t.Notes = fmt.Sprintf("class nature: %v", cr.Nature)
	return t, nil
}

// table5 reproduces "Aggregate classes and their weights used in the
// heuristic function", listing the locally trained weight next to the
// weight the paper reports.
func (r render) table5() (*Table, error) {
	rep, err := r.trainedReport()
	if err != nil {
		return nil, err
	}
	paper := classify.PaperWeights()
	t := &Table{
		ID:     "5",
		Title:  "Aggregate classes and their weights",
		Header: []string{"Class", "Feature", "Trained weight", "Paper weight", "Nature"},
		Notes:  "trained on this repository's synthetic suite; paper column from the publication",
	}
	for agg := classify.AG1; agg <= classify.AG9; agg++ {
		ar, _ := rep.AggByClass(agg)
		nature := "-"
		if ar != nil {
			nature = ar.Nature.String()
		}
		t.Rows = append(t.Rows, []string{
			agg.String(),
			agg.Feature(),
			fmt.Sprintf("%+.2f", rep.Weights[agg]),
			fmt.Sprintf("%+.2f", paper[agg]),
			nature,
		})
	}
	return t, nil
}

// table6 lists the two input sets of every benchmark.
func (r render) table6() (*Table, error) {
	t := &Table{
		ID:     "6",
		Title:  "The inputs used in the experiments",
		Header: []string{"Benchmark", "Input 1", "Input 2", "Args 1", "Args 2"},
	}
	for _, b := range bench.All() {
		t.Rows = append(t.Rows, []string{
			b.Name, b.Input1Name, b.Input2Name,
			fmt.Sprint(b.Input1), fmt.Sprint(b.Input2),
		})
	}
	return t, nil
}
