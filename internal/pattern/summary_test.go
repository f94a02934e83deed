package pattern

import (
	"context"
	"errors"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/disasm"
	"delinq/internal/isa/mips"
	"delinq/internal/minic"
)

// returnPatterns runs phase 1 on p and returns fn's return-value
// patterns.
func returnPatterns(t *testing.T, p *disasm.Program, fn string) []*Expr {
	t.Helper()
	s, err := summarize(context.Background(), p, mips.M)
	if err != nil {
		t.Fatal(err)
	}
	return s.facts[p.FuncByName(fn)].ret
}

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
	ret := returnPatterns(t, p, "next")
	if len(ret) != 1 {
		t.Fatalf("ret = %v", ret)
	}
	if got := ret[0].String(); got != "8(param:a0)" {
		t.Errorf("ret[0] = %q, want 8(param:a0)", got)
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
	if ret := returnPatterns(t, p, "opaque"); ret != nil {
		t.Errorf("ret = %v, want nil for uninformative patterns", ret)
	}
}

// Repeated interprocedural analyses of one program agree exactly: no
// state survives a call, and nothing depends on map iteration order.
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

func benchProg(b testing.TB) *disasm.Program {
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

// countdownCtx is a context that ends at its n-th Err call: from then on
// Err returns context.Canceled and Done is closed.
type countdownCtx struct {
	context.Context
	left int
	done chan struct{}
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), left: n, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left > 0 {
		c.left--
		if c.left == 0 {
			close(c.done)
		}
	}
	if c.left == 0 {
		return context.Canceled
	}
	return nil
}

// Both modes check their context before each function, so a context
// that ends mid-program stops the analysis at the next function, in
// either interprocedural phase.
func TestAnalyzeProgramStopsBetweenFunctions(t *testing.T) {
	p := benchProg(t)
	n := len(p.Funcs)
	if n < 4 {
		t.Fatalf("%d functions, want at least 4", n)
	}
	for _, tc := range []struct {
		name  string
		inter bool
		endAt int // the Err call that first reports the end
	}{
		{"flat", false, 3},
		{"inter/phase1", true, 3},
		{"inter/phase2", true, n + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loads, err := AnalyzeProgramCtx(newCountdownCtx(tc.endAt), p, Config{Interprocedural: tc.inter})
			if !errors.Is(err, context.Canceled) || loads != nil {
				t.Fatalf("got %d loads and err %v, want no loads and context.Canceled", len(loads), err)
			}
		})
	}
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
		s, err := summarize(context.Background(), p, mips.M)
		if err != nil {
			b.Fatal(err)
		}
		if s.facts[p.Funcs[0]].df == nil {
			b.Fatal("no facts")
		}
	}
}
