// Quickstart: compile a small pointer-chasing program, simulate it, and
// statically identify its delinquent loads — then check the prediction
// against the measured per-load miss counts.
package main

import (
	"context"
	"fmt"
	"log"

	"delinq/internal/core"
)

const program = `
// A linked list interleaved with a big array: the classic mix of a
// pointer-chasing delinquent load and a strided one, surrounded by
// scalar stack traffic the heuristic must not flag.
struct Node { int key; struct Node *next; };
int table[16384];

int main() {
	int i;
	struct Node *head = 0;
	for (i = 0; i < 6000; i++) {
		struct Node *n = malloc(sizeof(struct Node));
		n->key = i;
		n->next = head;
		head = n;
	}
	for (i = 0; i < 16384; i++) table[i] = i * 3;

	int sum = 0;
	int round;
	for (round = 0; round < 4; round++) {
		struct Node *p = head;
		while (p) { sum += p->key; p = p->next; }
		for (i = 0; i < 16384; i++) sum += table[i];
	}
	return sum & 255;
}
`

func main() {
	ctx := context.Background()
	// 1. Compile (unoptimised, like the paper's training runs).
	img, err := core.BuildSourceISA(program, false, "")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Simulate against the paper's 8 KB baseline D-cache to obtain
	// the execution profile and ground-truth misses.
	sim, err := core.SimulateCtx(ctx, img, nil)
	if err != nil {
		log.Fatal(err)
	}
	st := sim.Caches[0].Stats()
	fmt.Printf("executed %d instructions, %d data accesses, %.1f%% miss rate\n",
		sim.Result.Insts, st.Accesses, 100*st.MissRate())

	// 3. Static identification: address patterns -> classes -> phi.
	res, err := core.IdentifyImageCtx(ctx, img, core.Options{Profile: sim})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\npossibly delinquent loads (delta=%.2f):\n", res.Config.Delta)
	for _, d := range res.Delinquent() {
		fmt.Println(" ", core.Describe(d))
	}

	// 4. Score the prediction.
	ev := res.Evaluate(sim, 0)
	fmt.Printf("\npi = %.1f%% of static loads flagged, covering rho = %.1f%% of misses\n",
		100*ev.Pi, 100*ev.Rho)
}
