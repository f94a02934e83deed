// Memtrace: the off-line memory-profiling workflow of Section 3 — the
// expensive alternative the paper's static heuristic exists to avoid.
// The program runs once while emitting a memory trace; the trace is then
// replayed through several cache simulators to recover per-load miss
// counts, and the resulting "measured" delinquent set is compared with
// the purely static prediction.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sort"

	"delinq/internal/cache"
	"delinq/internal/core"
	"delinq/internal/trace"
	"delinq/internal/vm"
)

const program = `
struct Rec { int key; int val; struct Rec *chain; };
struct Rec *index[2048];
int probes[16384];

int main() {
	int i;
	for (i = 0; i < 2048; i++) index[i] = 0;
	for (i = 0; i < 3000; i++) {
		struct Rec *r = malloc(sizeof(struct Rec));
		r->key = i * 7;
		r->val = i;
		int h = (i * 2654435) & 2047;
		r->chain = index[h];
		index[h] = r;
	}
	for (i = 0; i < 16384; i++) probes[i] = (i * 97) & 2047;
	int found = 0;
	for (i = 0; i < 16384; i++) {
		struct Rec *r = index[probes[i]];
		while (r) {
			found += r->val & 1;
			r = r->chain;
		}
	}
	return found & 255;
}
`

func main() {
	ctx := context.Background()
	img, err := core.BuildSourceISA(program, false, "")
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: execute once, emitting the trace (this is the costly
	// step the paper wants to avoid: the trace is ~6 bytes per access).
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	res, err := vm.RunContext(ctx, img, vm.Options{
		OnAccess: func(pc, addr uint32, store bool) { tw.Add(pc, addr, store) },
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced %d accesses over %d instructions (%.1f MB trace)\n",
		tw.Records(), res.Insts, float64(buf.Len())/1e6)

	// Phase 2: replay through cache simulators — no re-execution needed.
	geoms := []cache.Config{
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 32 * 1024, Assoc: 4, BlockBytes: 32},
	}
	stats, err := trace.Replay(bytes.NewReader(buf.Bytes()), geoms...)
	if err != nil {
		log.Fatal(err)
	}
	for i, g := range geoms {
		fmt.Printf("replayed %-16s: %d load misses\n", g.String(), stats[i].Cache.LoadMisses)
	}

	// Phase 3: the measured delinquent set (top loads by replayed
	// misses) versus the static prediction that needed no run at all.
	ident, err := core.IdentifyImageCtx(ctx, img, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	static := ident.DeltaSet()

	type hot struct {
		pc uint32
		m  int64
	}
	var hots []hot
	for pc, m := range stats[0].LoadMisses {
		hots = append(hots, hot{pc, m})
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].m > hots[j].m })
	var total, covered int64
	for _, h := range hots {
		total += h.m
		if static[h.pc] {
			covered += h.m
		}
	}
	fmt.Printf("\ntop measured miss carriers vs static prediction:\n")
	for i, h := range hots {
		if i >= 5 || h.m == 0 {
			break
		}
		mark := " "
		if static[h.pc] {
			mark = "*"
		}
		fn := ident.Prog.FuncAt(h.pc)
		fmt.Printf("  %s %s+%#x  %d misses\n", mark, fn.Name, h.pc-fn.Entry, h.m)
	}
	fmt.Printf("\nstatic set covers %.1f%% of replayed misses without any profiling run\n",
		100*float64(covered)/float64(total))
}
