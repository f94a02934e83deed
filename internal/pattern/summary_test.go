package pattern

import (
	"testing"

	"delinq/internal/asm"
	"delinq/internal/disasm"
	"delinq/internal/minic"
)

func TestSummaryRetPattern(t *testing.T) {
	p := assembleProg(t, `
	.func next, frame=0
next:
	lw $v0, 8($a0)
	jr $ra
	.endfunc
	.func main, frame=0
main:
	jal next
	jr $ra
	.endfunc
`)
	s := ComputeSummaries(p)
	sum := s.Of(p.FuncByName("next"))
	if len(sum.Ret) != 1 {
		t.Fatalf("Ret = %v", sum.Ret)
	}
	if got := sum.Ret[0].String(); got != "8(param:a0)" {
		t.Errorf("Ret[0] = %q, want 8(param:a0)", got)
	}
	if sum.ArgDeref[0] != 1 {
		t.Errorf("ArgDeref[0] = %d, want 1", sum.ArgDeref[0])
	}
	if sum.ArgDeref[1] != 0 {
		t.Errorf("ArgDeref[1] = %d, want 0", sum.ArgDeref[1])
	}
}

// An argument forwarded through a wrapper inherits the inner function's
// consumption depth.
func TestSummaryArgDerefTransitive(t *testing.T) {
	p := assembleProg(t, `
	.func inner, frame=0
inner:
	lw $t0, 0($a0)
	lw $t1, 0($t0)
	jr $ra
	.endfunc
	.func outer, frame=0
outer:
	move $a0, $a1
	jal inner
	jr $ra
	.endfunc
	.func main, frame=0
main:
	jal outer
	jr $ra
	.endfunc
`)
	s := ComputeSummaries(p)
	if d := s.Of(p.FuncByName("inner")).ArgDeref[0]; d != 2 {
		t.Errorf("inner ArgDeref[0] = %d, want 2 (chased twice)", d)
	}
	out := s.Of(p.FuncByName("outer"))
	if out.ArgDeref[1] != 2 {
		t.Errorf("outer ArgDeref[1] = %d, want 2 (forwarded to inner's a0)", out.ArgDeref[1])
	}
	if out.ArgDeref[0] != 0 {
		t.Errorf("outer ArgDeref[0] = %d, want 0 (a0 is overwritten)", out.ArgDeref[0])
	}
}

// A function whose return value is unanalysable gets a nil Ret so the
// caller keeps its bare ret:v0 leaf (intra behaviour).
func TestSummaryUninformativeRetDropped(t *testing.T) {
	p := assembleProg(t, `
	.func opaque, frame=0
opaque:
	jalr $ra, $t9
	jr $ra
	.endfunc
	.func main, frame=0
main:
	jal opaque
	jr $ra
	.endfunc
`)
	s := ComputeSummaries(p)
	if sum := s.Of(p.FuncByName("opaque")); sum.Ret != nil {
		t.Errorf("Ret = %v, want nil for an uninformative summary", sum.Ret)
	}
}

// Phase 1 runs one goroutine per function; the result must not depend
// on scheduling.
func TestSummariesDeterministic(t *testing.T) {
	src := `
struct node { int key; struct node *next; };
struct node pool[16];
struct node *step(struct node *p) { return p->next; }
int get(struct node *p) { return p->key; }
int sum2(struct node *p) { return get(p) + get(step(p)); }
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 15; i++) pool[i].next = &pool[i+1];
	for (i = 0; i < 8; i++) s += sum2(&pool[i]);
	return s & 255;
}
`
	asmText, err := minic.Compile(src, minic.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	conf := Config{Interprocedural: true}
	want := analyze(t, p, conf)
	for i := 0; i < 10; i++ {
		got := analyze(t, p, conf)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d loads, want %d", i, len(got), len(want))
		}
		for j := range got {
			if len(got[j].Patterns) != len(want[j].Patterns) {
				t.Fatalf("run %d load %d diverged: %v vs %v", i, j, got[j].Patterns, want[j].Patterns)
			}
			for k := range got[j].Patterns {
				if !got[j].Patterns[k].Equal(want[j].Patterns[k]) {
					t.Fatalf("run %d load %d diverged: %v vs %v", i, j, got[j].Patterns, want[j].Patterns)
				}
			}
		}
	}
}

// benchProgram is the workload for the analysis benchmarks: a call-heavy
// pointer-chasing program in the style of the mcf model.
const benchProgram = `
struct node { int key; int weight; struct node *next; };
struct node pool[256];
struct node *head;
int total;

struct node *step(struct node *p) { return p->next; }
int keyof(struct node *p) { return p->key; }
int weigh(struct node *p) { return p->weight * 2 + keyof(p); }
int scan(struct node *p) {
	int s = 0;
	while (p) {
		s = s + weigh(p);
		p = step(p);
	}
	return s;
}
int main() {
	int i;
	for (i = 0; i < 255; i++) {
		pool[i].key = i;
		pool[i].weight = i * 3;
		pool[i].next = &pool[i+1];
	}
	pool[255].next = 0;
	head = &pool[0];
	total = scan(head);
	for (i = 0; i < 4; i++) total = total + scan(&pool[i * 8]);
	print_int(total);
	return total & 255;
}
`

func benchProg(b *testing.B) *disasm.Program {
	b.Helper()
	asmText, err := minic.Compile(benchProgram, minic.Options{Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		b.Fatal(err)
	}
	p, err := disasm.Disassemble(img)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkAnalyzeProgram(b *testing.B) {
	p := benchProg(b)
	for _, mode := range []struct {
		name  string
		inter bool
	}{{"intra", false}, {"inter", true}} {
		b.Run(mode.name, func(b *testing.B) {
			conf := Config{Interprocedural: mode.inter}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if loads := analyze(b, p, conf); len(loads) == 0 {
					b.Fatal("no loads")
				}
			}
		})
	}
}

func BenchmarkSummaries(b *testing.B) {
	p := benchProg(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := ComputeSummaries(p)
		if s.Of(p.Funcs[0]) == nil {
			b.Fatal("no summary")
		}
	}
}
