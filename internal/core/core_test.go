package core

import (
	"context"
	"strings"
	"testing"

	"delinq/internal/cache"
)

const chaseSrc = `
struct Node { int key; struct Node *next; };
int main() {
	struct Node *head = 0;
	int i;
	for (i = 0; i < 4000; i++) {
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

// identify builds src for mips and identifies its delinquent loads
// without a profile.
func identify(t *testing.T, src string, optimize bool) *Result {
	t.Helper()
	img, err := BuildSourceISA(src, optimize, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := IdentifyImageCtx(context.Background(), img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIdentifySourcePipeline(t *testing.T) {
	res := identify(t, chaseSrc, false)
	if len(res.Loads) == 0 || len(res.Scored) != len(res.Loads) {
		t.Fatalf("loads=%d scored=%d", len(res.Loads), len(res.Scored))
	}
	// Without a profile the frequency classes must be off.
	if res.Config.UseFrequency {
		t.Error("frequency classes enabled without a profile")
	}
	d := res.Delinquent()
	if len(d) == 0 {
		t.Fatal("no delinquent loads found in a pointer-chasing program")
	}
	// Sorted by phi descending.
	for i := 1; i < len(d); i++ {
		if d[i].Phi > d[i-1].Phi {
			t.Error("Delinquent not sorted by phi")
		}
	}
	if res.Pi() <= 0 || res.Pi() > 0.5 {
		t.Errorf("pi = %v", res.Pi())
	}
	if got := len(res.DeltaSet()); got != len(d) {
		t.Errorf("DeltaSet size %d != %d", got, len(d))
	}
}

func TestSimulateAndEvaluate(t *testing.T) {
	ctx := context.Background()
	img, err := BuildSourceISA(chaseSrc, false, "")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateCtx(ctx, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Result.Insts == 0 || sim.Caches[0].Stats().Misses == 0 {
		t.Fatal("simulation produced no activity")
	}
	res, err := IdentifyImageCtx(ctx, img, Options{Profile: sim})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Config.UseFrequency {
		t.Error("frequency classes disabled despite profile")
	}
	ev := res.Evaluate(sim, 0)
	if ev.Rho < 0.9 {
		t.Errorf("rho = %v; the chain loads carry the misses", ev.Rho)
	}
	okn, bdh := res.Baselines(sim, 0)
	if okn.Selected < ev.Selected {
		t.Errorf("OKN selected %d < heuristic %d", okn.Selected, ev.Selected)
	}
	if bdh.Rho == 0 {
		t.Error("BDH found nothing")
	}
}

func TestSimulateMultipleGeometries(t *testing.T) {
	img, err := BuildSourceISA(chaseSrc, false, "")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateCtx(context.Background(), img, nil,
		cache.Config{SizeBytes: 1 * 1024, Assoc: 1, BlockBytes: 32},
		cache.Config{SizeBytes: 256 * 1024, Assoc: 8, BlockBytes: 32},
	)
	if err != nil {
		t.Fatal(err)
	}
	small := sim.Caches[0].Stats().LoadMisses
	big := sim.Caches[1].Stats().LoadMisses
	if small <= big {
		t.Errorf("1KB cache misses (%d) should exceed 256KB (%d)", small, big)
	}
}

func TestSimulateBadGeometry(t *testing.T) {
	img, err := BuildSourceISA(`int main() { return 0; }`, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateCtx(context.Background(), img, nil, cache.Config{SizeBytes: 7}); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestDescribe(t *testing.T) {
	d := identify(t, chaseSrc, false).Delinquent()
	if len(d) == 0 {
		t.Fatal("nothing to describe")
	}
	s := Describe(d[0])
	for _, want := range []string{"phi=", "classes=", "pattern="} {
		if !strings.Contains(s, want) {
			t.Errorf("Describe = %q missing %q", s, want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildSourceISA("int main( {", false, ""); err == nil {
		t.Error("bad source compiled")
	}
}

func TestOptimizedIdentification(t *testing.T) {
	if len(identify(t, chaseSrc, true).Delinquent()) == 0 {
		t.Error("no delinquent loads in -O binary; register recurrences should flag")
	}
}
