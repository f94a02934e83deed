package train_test

import (
	"context"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/disasm"
	"delinq/internal/minic"
	"delinq/internal/pattern"
	"delinq/internal/train"
	"delinq/internal/vm"
)

// The end-to-end slice of the paper's pipeline: compile synthetic
// workloads, simulate them against a small cache, assemble training
// samples exactly as the experiment engine does, run the training phase,
// and then classify with the trained weights — asserting that the known
// cache-hostile load comes out delinquent.

// chaseSrc builds a 32 KB linked list and chases it repeatedly: the
// p->next load misses heavily in an 8 KB cache.
const chaseSrc = `
struct node { int v; struct node *next; };
int main() {
	struct node *head = 0;
	int i;
	for (i = 0; i < 4096; i++) {
		struct node *nn = malloc(sizeof(struct node));
		nn->v = i;
		nn->next = head;
		head = nn;
	}
	int pass;
	int s = 0;
	for (pass = 0; pass < 4; pass++) {
		struct node *p = head;
		while (p) { s += p->v; p = p->next; }
	}
	print_int(s);
	return 0;
}`

// streamSrc re-reads a 1 KB array that fits in cache: almost no misses.
const streamSrc = `
int arr[256];
int main() {
	int i;
	int pass;
	int s = 0;
	for (i = 0; i < 256; i++) arr[i] = i;
	for (pass = 0; pass < 200; pass++) {
		for (i = 0; i < 256; i++) s += arr[i];
	}
	print_int(s);
	return 0;
}`

// strideSrc walks a 64 KB array one cache line at a time: every access
// misses, through an indexed (non-pointer) pattern.
const strideSrc = `
int big[16384];
int main() {
	int i;
	int pass;
	int s = 0;
	for (pass = 0; pass < 4; pass++) {
		for (i = 0; i < 16384; i += 8) s += big[i];
	}
	return s & 255;
}`

var e2eGeom = cache.Config{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32}

type simulated struct {
	loads []*pattern.Load
	res   *vm.Result
}

// ExecCount implements classify.ExecProfile.
func (s *simulated) ExecCount(pc uint32) int64 { return s.res.ExecAt(pc) }

func simulate(t *testing.T, src string) *simulated {
	ctx := context.Background()
	t.Helper()
	asmText, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	prog, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatalf("disasm: %v", err)
	}
	c, err := cache.New(e2eGeom)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.RunContext(ctx, img, vm.Options{Caches: []*cache.Cache{c}, MaxInsts: 1e8})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	loads, err := pattern.AnalyzeProgramCtx(ctx, prog, pattern.Config{})
	if err != nil {
		t.Fatalf("pattern: %v", err)
	}
	return &simulated{loads: loads, res: res}
}

// sampleOf converts a simulation into a train.Sample the same way
// the table engine's learning phase does.
func sampleOf(name string, sim *simulated) train.Sample {
	s := train.Sample{Name: name}
	for _, ld := range sim.loads {
		exec := sim.res.ExecAt(ld.PC)
		misses := sim.res.MissesAt(0, ld.PC)
		s.TotalMisses += misses
		ls := train.LoadSample{
			PC:      ld.PC,
			Classes: classify.LoadClasses(ld, exec),
			Exec:    exec,
			Misses:  misses,
		}
		seen := map[classify.AggClass]bool{}
		for _, p := range ld.Patterns {
			for _, a := range classify.PatternClasses(classify.FeaturesOf(p)) {
				if !seen[a] {
					seen[a] = true
					ls.Aggs = append(ls.Aggs, a)
				}
			}
		}
		if f := classify.FreqClass(exec); f != 0 && !seen[f] {
			ls.Aggs = append(ls.Aggs, f)
		}
		s.Loads = append(s.Loads, ls)
	}
	return s
}

func TestTrainThenClassifyEndToEnd(t *testing.T) {
	chase := simulate(t, chaseSrc)
	stream := simulate(t, streamSrc)
	stride := simulate(t, strideSrc)

	samples := []train.Sample{
		sampleOf("chase", chase),
		sampleOf("stream", stream),
		sampleOf("stride", stride),
	}
	for _, s := range samples {
		if len(s.Loads) == 0 {
			t.Fatalf("%s: no loads analysed", s.Name)
		}
	}
	if samples[0].TotalMisses == 0 || samples[2].TotalMisses == 0 {
		t.Fatalf("cache-hostile workloads produced no misses: chase=%d stride=%d",
			samples[0].TotalMisses, samples[2].TotalMisses)
	}

	rep := train.Train(samples)

	// The training phase must find at least one positive aggregate class
	// and set the structural negative weights (Section 7.3).
	positive := 0
	for _, ar := range rep.Aggs {
		if ar.Nature == train.Positive {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("training found no positive aggregate class")
	}
	if rep.Weights[classify.AG9] >= 0 {
		t.Errorf("AG9 weight %+.2f, want negative", rep.Weights[classify.AG9])
	}
	if got, want := rep.Weights[classify.AG8], rep.Weights[classify.AG9]/2; got != want {
		t.Errorf("AG8 weight %v, want half of AG9 (%v)", got, want)
	}

	// Close the loop: score the pointer-chasing workload with the
	// weights we just trained. The load with the most misses (the
	// p->next chase) must be reported possibly delinquent.
	cfg := classify.DefaultConfig()
	cfg.Weights = &rep.Weights
	scored := classify.Score(chase.loads, chase, cfg)
	delinq := classify.Delinquent(scored)
	if len(delinq) == 0 {
		t.Fatal("trained heuristic flags no delinquent loads in the chase workload")
	}
	var topPC uint32
	var topMisses int64 = -1
	for _, ld := range chase.loads {
		if m := chase.res.MissesAt(0, ld.PC); m > topMisses {
			topMisses, topPC = m, ld.PC
		}
	}
	found := false
	for _, s := range delinq {
		if s.Load.PC == topPC {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("top-miss load %#x (%d misses) not in delinquent set (|Δ|=%d)",
			topPC, topMisses, len(delinq))
	}
}
