package freq

import (
	"testing"

	"delinq/internal/asm"
	"delinq/internal/disasm"
	"delinq/internal/minic"
)

func estimate(t *testing.T, src string) (*disasm.Program, *Profile) {
	t.Helper()
	asmText, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	return prog, Estimate(prog)
}

// firstLoadCount returns the estimated count of the first load of fn.
func firstLoadCount(t *testing.T, prog *disasm.Program, p *Profile, fn string) int64 {
	t.Helper()
	f := prog.FuncByName(fn)
	if f == nil {
		t.Fatalf("no function %q", fn)
	}
	for i, in := range f.Insts {
		if in.IsLoad() {
			return p.ExecCount(f.PC(i))
		}
	}
	t.Fatalf("no load in %q", fn)
	return 0
}

const freqSrc = `
int a[100];
int hot(int i) { return a[i & 63]; }
int coldfn(int i) { return a[i & 7] * 2; }
int main() {
	int s = 0;
	int i;
	for (i = 0; i < 100000; i++) s += hot(i);
	int j;
	for (i = 0; i < 10; i++)
		for (j = 0; j < 10; j++)
			s += a[i * 10 + j];
	return s & 255;
}
`

func TestLoopNestingDrivesEstimates(t *testing.T) {
	prog, p := estimate(t, freqSrc)
	main := prog.FuncByName("main")
	var depth0, depth1, depth2 int64
	for i, in := range main.Insts {
		if !in.IsLoad() {
			continue
		}
		c := p.ExecCount(main.PC(i))
		switch {
		case c >= 1000*1000:
			depth2 = c
		case c >= 1000:
			if depth1 == 0 {
				depth1 = c
			}
		default:
			depth0 = c
		}
	}
	if depth1 == 0 || depth2 == 0 {
		t.Fatalf("no loop-nest stratification: d1=%d d2=%d", depth1, depth2)
	}
	_ = depth0
	if depth2 <= depth1 {
		t.Errorf("nested loop (%d) not hotter than single loop (%d)", depth2, depth1)
	}
}

func TestCallPropagation(t *testing.T) {
	prog, p := estimate(t, freqSrc)
	// hot() is called from a loop: its loads inherit ~tripCount.
	if c := firstLoadCount(t, prog, p, "hot"); c < 1000 {
		t.Errorf("hot() estimate = %d, want >= 1000", c)
	}
	// coldfn() is never called: estimate 0 -> "rarely executed".
	if c := firstLoadCount(t, prog, p, "coldfn"); c != 0 {
		t.Errorf("uncalled function estimate = %d, want 0", c)
	}
	// main's straight-line code runs once.
	main := prog.FuncByName("main")
	if c := p.ExecCount(main.Entry); c != 1 {
		t.Errorf("main entry estimate = %d, want 1", c)
	}
}

func TestRecursionSaturates(t *testing.T) {
	prog, p := estimate(t, `
int fact(int n) {
	if (n < 2) return 1;
	return n * fact(n - 1);
}
int main() { return fact(10) & 255; }
`)
	c := firstLoadCount(t, prog, p, "fact")
	if c < 1 {
		t.Errorf("recursive function estimate = %d, want >= 1", c)
	}
	if c > maxCount {
		t.Errorf("estimate %d exceeds cap", c)
	}
}

func TestDeepCallChain(t *testing.T) {
	prog, p := estimate(t, `
int a[10];
int f5(int x) { return a[x & 7]; }
int f4(int x) { return f5(x) + 1; }
int f3(int x) { return f4(x) + 1; }
int f2(int x) { return f3(x) + 1; }
int f1(int x) { return f2(x) + 1; }
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 100; i++) s += f1(i);
	return s & 255;
}
`)
	if c := firstLoadCount(t, prog, p, "f5"); c < 1000 {
		t.Errorf("deep-chain leaf estimate = %d, want >= 1000", c)
	}
}

func TestZeroForUnknownPC(t *testing.T) {
	_, p := estimate(t, `int main() { return 0; }`)
	if c := p.ExecCount(0xdeadbeec); c != 0 {
		t.Errorf("unknown pc estimate = %d", c)
	}
}
