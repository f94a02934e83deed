// Train weights: runs the paper's full learning phase (Section 7) over
// the eleven training benchmarks and prints the equivalent of Tables 3,
// 4 and 5 — per-class relevance counts, the m/n detail of the "sp=1,
// gp=1" class, and the final aggregate weights next to the published
// ones — then evaluates the trained heuristic on the seven held-out
// benchmarks (Table 10).
package main

import (
	"context"
	"fmt"
	"log"

	"delinq/internal/bench"
	"delinq/internal/classify"
	"delinq/internal/metrics"
	"delinq/internal/tables"
)

func main() {
	ctx := context.Background()
	eng := tables.Engine{}
	rep, err := eng.TrainedReport(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("H1 register-usage classes over the 11 training benchmarks:")
	for i := 1; i <= classify.NumH1Classes; i++ {
		cr, ok := rep.ClassByID(classify.ClassID{Crit: classify.H1, Idx: i})
		if !ok || cr.FoundIn == 0 {
			continue
		}
		fmt.Printf("  class %-2d %-12s found in %2d, relevant in %2d, %s\n",
			i, classify.H1Feature(i), cr.FoundIn, cr.RelevantIn, cr.Nature)
	}

	fmt.Println("\nclass 5 'sp=1, gp=1' detail (the paper's Table 4):")
	if cr, ok := rep.ClassByID(classify.ClassID{Crit: classify.H1, Idx: 5}); ok {
		for _, st := range cr.PerBench {
			if !st.Found {
				continue
			}
			fmt.Printf("  %-14s m=%6.2f%%  n=%6.2f%%  relevant=%v\n",
				st.Bench, 100*st.M, 100*st.N, st.Relevant)
		}
	}

	paper := classify.PaperWeights()
	fmt.Println("\ntrained aggregate weights vs the paper's:")
	for agg := classify.AG1; agg <= classify.AG9; agg++ {
		fmt.Printf("  %-4v %-24s trained %+.2f   paper %+.2f\n",
			agg, agg.Feature(), rep.Weights[agg], paper[agg])
	}

	// Hold-out evaluation: the litmus test of Section 8.4.
	cfg, err := eng.HeuristicConfig(ctx, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nheld-out benchmarks (weights trained on the other 11):")
	var pis, rhos []float64
	for _, b := range bench.Test() {
		c, err := eng.Load(ctx, b, false, false)
		if err != nil {
			log.Fatal(err)
		}
		ev := metrics.Evaluate(c.Delta(cfg), c.Stats(tables.GeomBaseline))
		pis = append(pis, ev.Pi)
		rhos = append(rhos, ev.Rho)
		fmt.Printf("  %-14s pi=%5.1f%%  rho=%5.1f%%\n", b.Name, 100*ev.Pi, 100*ev.Rho)
	}
	var pi, rho float64
	for i := range pis {
		pi += pis[i]
		rho += rhos[i]
	}
	fmt.Printf("  %-14s pi=%5.1f%%  rho=%5.1f%%\n", "AVERAGE",
		100*pi/float64(len(pis)), 100*rho/float64(len(rhos)))
}
