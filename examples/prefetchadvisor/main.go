// Prefetch advisor: the paper's motivating application. Delinquent-load
// identification exists so that prefetching (or any other latency-hiding
// mechanism) can be applied only where it pays. This example compares
// three placement policies on the same program:
//
//   - prefetch nothing (baseline misses),
//   - prefetch every load (the naive policy the paper's introduction
//     warns about, costed by instruction overhead),
//   - prefetch only the statically identified delinquent loads.
//
// The comparison is in terms of issue overhead (one extra instruction
// per prefetch) versus the share of load misses the policy targets,
// which is the trade-off the paper's introduction frames.
package main

import (
	"context"
	"fmt"
	"log"

	"delinq/internal/core"
	"delinq/internal/metrics"
)

const program = `
float field[24576];
int perm[8192];

int main() {
	int i;
	for (i = 0; i < 24576; i++) field[i] = i * 0.25;
	for (i = 0; i < 8192; i++) perm[i] = (i * 163 + 41) % 8192;

	float acc = 0.0;
	int pass;
	for (pass = 0; pass < 6; pass++) {
		// Strided sweep: next-line prefetching helps a lot here.
		for (i = 0; i < 24576; i++) acc += field[i];
		// Permuted walk: prefetching the next line is useless here.
		int j = 0;
		for (i = 0; i < 8192; i++) {
			j = perm[j];
			acc += j;
		}
	}
	int out = acc * 0.001;
	return out & 255;
}
`

func main() {
	ctx := context.Background()
	img, err := core.BuildSourceISA(program, false, "")
	if err != nil {
		log.Fatal(err)
	}
	sim, err := core.SimulateCtx(ctx, img, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.IdentifyImageCtx(ctx, img, core.Options{Profile: sim})
	if err != nil {
		log.Fatal(err)
	}

	stats := sim.LoadStats(res.Loads, 0)
	total := metrics.TotalMisses(stats)
	delta := res.DeltaSet()
	ev := res.Evaluate(sim, 0)

	// Overhead model from the paper's argument: one extra instruction
	// per prefetch issued. Gating on Δ issues prefetches only at
	// flagged loads.
	var allExec, deltaExec int64
	for _, s := range stats {
		allExec += s.Exec
		if delta[s.PC] {
			deltaExec += s.Exec
		}
	}
	coveredMisses := ev.MissesCovered

	fmt.Printf("program: %d static loads, %d dynamic loads, %d load misses\n",
		len(stats), allExec, total)
	fmt.Printf("\npolicy comparison (next-line prefetch, 1 inst overhead per issue):\n")
	fmt.Printf("  %-28s %12s %16s\n", "policy", "issues", "misses targeted")
	fmt.Printf("  %-28s %12d %15.1f%%\n", "prefetch nothing", 0, 0.0)
	fmt.Printf("  %-28s %12d %15.1f%%\n", "prefetch every load", allExec, 100.0)
	fmt.Printf("  %-28s %12d %15.1f%%\n", "prefetch delinquent only",
		deltaExec, 100*float64(coveredMisses)/float64(total))
	fmt.Printf("\nthe gated policy issues %.1f%% of the naive policy's prefetches\n",
		100*float64(deltaExec)/float64(allExec))
	fmt.Printf("while targeting %.1f%% of all load misses — the paper's point:\n",
		100*ev.Rho)
	fmt.Println("precise identification bounds the overhead of the optimisation.")
	for _, d := range res.Delinquent() {
		fmt.Println("  gate:", core.Describe(d))
	}
}
