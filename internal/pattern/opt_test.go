package pattern

import (
	"testing"

	"delinq/internal/asm"
	"delinq/internal/disasm"
	"delinq/internal/isa/mips"
	"delinq/internal/minic"
)

// compileLoads compiles mini-C and returns the analysed loads of main.
func compileLoads(t *testing.T, src string, optimize bool) []*Load {
	t.Helper()
	asmText, err := minic.Compile(src, minic.Options{Optimize: optimize})
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
	f := prog.FuncByName("main")
	if f == nil {
		t.Fatal("no main")
	}
	return analyzeFuncMachine(f, mips.M)
}

const arrayWalk = `
int a[4096];
int main() {
	int sum = 0;
	int i;
	for (i = 0; i < 4096; i++) sum += a[i];
	return sum & 255;
}
`

// TestO0ArrayWalkShape: unoptimised array walks show the full -O0 idiom:
// gp base, stack-slot index dereference, shift, and a slot recurrence.
func TestO0ArrayWalkShape(t *testing.T) {
	loads := compileLoads(t, arrayWalk, false)
	found := false
	for _, ld := range loads {
		for _, p := range ld.Patterns {
			if p.CountGP() == 1 && p.CountSP() >= 1 && p.HasMulOrShift() &&
				p.MaxDeref() == 1 && p.HasRecurrence() {
				found = true
			}
		}
	}
	if !found {
		var pats []string
		for _, ld := range loads {
			for _, p := range ld.Patterns {
				pats = append(pats, p.String())
			}
		}
		t.Errorf("no gp+slot-deref+shift+rec pattern among %v", pats)
	}
}

// TestOptArrayWalkShape: with -O the index lives in a callee-saved
// register, so the pattern keeps the shift and becomes a *register*
// recurrence without any stack dereference.
func TestOptArrayWalkShape(t *testing.T) {
	loads := compileLoads(t, arrayWalk, true)
	found := false
	for _, ld := range loads {
		for _, p := range ld.Patterns {
			if p.HasMulOrShift() && p.HasRecurrence() && p.MaxDeref() == 0 &&
				p.CountSP() == 0 {
				found = true
			}
		}
	}
	if !found {
		var pats []string
		for _, ld := range loads {
			for _, p := range ld.Patterns {
				pats = append(pats, p.String())
			}
		}
		t.Errorf("no register-recurrent shift pattern among %v", pats)
	}
}

const chainWalk = `
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

// TestOptChainWalkShape: under -O the pointer p is register-promoted;
// p = p->next forms a register recurrence through a dereference.
func TestOptChainWalkShape(t *testing.T) {
	loads := compileLoads(t, chainWalk, true)
	found := false
	for _, ld := range loads {
		for _, p := range ld.Patterns {
			if p.HasRecurrence() && p.MaxDeref() >= 1 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no recurrent dereference pattern in optimised chain walk")
	}
}

// TestO0ChainDerefLevels: unoptimised, the chain hop loads p from its
// slot, so the next-field load is one dereference deep and recurrent
// (through the slot).
func TestO0ChainDerefLevels(t *testing.T) {
	loads := compileLoads(t, chainWalk, false)
	rec1 := false
	for _, ld := range loads {
		for _, p := range ld.Patterns {
			if p.MaxDeref() == 1 && p.HasRecurrence() {
				rec1 = true
			}
		}
	}
	if !rec1 {
		t.Error("no single-deref recurrent pattern in -O0 chain walk")
	}
}

// TestParamPatternSurvivesPromotion: a parameter used as a base keeps
// its param leaf under -O (homed via a register move, not a slot).
func TestParamPatternSurvivesPromotion(t *testing.T) {
	src := `
int get(int *p) { return p[3]; }
int main() {
	int x[8];
	x[3] = 9;
	return get(x);
}
`
	for _, opt := range []bool{false, true} {
		asmText, err := minic.Compile(src, minic.Options{Optimize: opt})
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
		f := prog.FuncByName("get")
		loads := analyzeFuncMachine(f, mips.M)
		ok := false
		for _, ld := range loads {
			for _, p := range ld.Patterns {
				// -O0: the slot holding p dereferences; -O: param leaf.
				if p.CountParam() == 1 || (p.MaxDeref() == 1 && p.CountSP() == 1) {
					ok = true
				}
			}
		}
		if !ok {
			t.Errorf("opt=%v: param-based access shape missing", opt)
		}
	}
}
