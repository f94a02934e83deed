package core_test

import (
	"context"
	"fmt"
	"log"

	"delinq/internal/core"
)

// ExampleIdentifyImageCtx shows static identification of a compiled
// image: a pointer-chasing loop is flagged, plain scalar loads are not.
func ExampleIdentifyImageCtx() {
	src := `
struct Node { int key; struct Node *next; };
int main() {
	struct Node *head = 0;
	int i;
	for (i = 0; i < 100; i++) {
		struct Node *n = malloc(sizeof(struct Node));
		n->key = i;
		n->next = head;
		head = n;
	}
	int sum = 0;
	struct Node *p = head;
	while (p) { sum += p->key; p = p->next; }
	return sum & 255;
}
`
	img, err := core.BuildSourceISA(src, false, "")
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.IdentifyImageCtx(context.Background(), img, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flagged %d of %d loads\n", len(res.Delinquent()), len(res.Loads))
	for _, d := range res.Delinquent() {
		fmt.Printf("%s: %s\n", d.Load.Inst, d.Load.Patterns[0])
	}
	// Output:
	// flagged 2 of 16 loads
	// lw $t1, 0($t1): rec:64(sp)
	// lw $t1, 0($t1): rec:64(sp)+4
}

// ExampleResult_Evaluate scores the static prediction against a
// simulated ground truth.
func ExampleResult_Evaluate() {
	src := `
int big[16384];
int main() {
	int s = 0;
	int i;
	for (i = 0; i < 16384; i++) s += big[i];
	return s & 255;
}
`
	img, err := core.BuildSourceISA(src, false, "")
	if err != nil {
		log.Fatal(err)
	}
	sim, err := core.SimulateCtx(context.Background(), img, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.IdentifyImageCtx(context.Background(), img, core.Options{Profile: sim})
	if err != nil {
		log.Fatal(err)
	}
	ev := res.Evaluate(sim, 0)
	fmt.Printf("coverage %.0f%% with %d flagged load(s)\n", 100*ev.Rho, ev.Selected)
	// Output:
	// coverage 100% with 1 flagged load(s)
}
