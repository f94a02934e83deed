package pattern

import (
	"testing"

	"delinq/internal/asm"
	"delinq/internal/disasm"
	"delinq/internal/isa"
	"delinq/internal/isa/mips"
)

// loadsOf assembles src and returns the analysed loads of fn.
func loadsOf(t *testing.T, src, fn string) []*Load {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	f := p.FuncByName(fn)
	if f == nil {
		t.Fatalf("no function %q", fn)
	}
	return analyzeFuncMachine(f, mips.M)
}

// the single load matching op in the list.
func oneLoad(t *testing.T, loads []*Load, op isa.Op, rt isa.Reg) *Load {
	t.Helper()
	for _, l := range loads {
		if l.Inst.Op == op && l.Inst.Rt == rt {
			return l
		}
	}
	t.Fatalf("load %v->%v not found among %d loads", op, rt, len(loads))
	return nil
}

func TestScalarStackLoad(t *testing.T) {
	loads := loadsOf(t, `
main:
	lw $t0, 8($sp)
	jr $ra
`, "main")
	l := loads[0]
	if len(l.Patterns) != 1 {
		t.Fatalf("patterns = %v", l.Patterns)
	}
	p := l.Patterns[0]
	if p.String() != "sp+8" {
		t.Errorf("pattern = %q", p)
	}
	if p.CountSP() != 1 || p.MaxDeref() != 0 || p.HasMulOrShift() || p.HasRecurrence() {
		t.Errorf("features wrong for %q", p)
	}
}

func TestGlobalLoad(t *testing.T) {
	loads := loadsOf(t, `
	.data
g: .word 1
	.text
main:
	lw $t0, g
	jr $ra
`, "main")
	p := loads[0].Patterns[0]
	if p.CountGP() != 1 || p.CountSP() != 0 || p.MaxDeref() != 0 {
		t.Errorf("global pattern = %q", p)
	}
}

func TestStackArrayIndexing(t *testing.T) {
	// a[i] with both a (at sp+16) and i (at sp+4) on the stack, the -O0
	// idiom: two sp occurrences, a shift, one dereference.
	loads := loadsOf(t, `
main:
	lw $t0, 4($sp)
	sll $t1, $t0, 2
	addiu $t2, $sp, 16
	add $t3, $t2, $t1
	lw $v0, 0($t3)
	jr $ra
`, "main")
	l := oneLoad(t, loads, isa.LW, isa.V0)
	if len(l.Patterns) != 1 {
		t.Fatalf("patterns = %v", l.Patterns)
	}
	p := l.Patterns[0]
	if p.CountSP() != 2 {
		t.Errorf("sp count = %d in %q", p.CountSP(), p)
	}
	if !p.HasMulOrShift() {
		t.Errorf("no shift found in %q", p)
	}
	if p.MaxDeref() != 1 {
		t.Errorf("deref = %d in %q", p.MaxDeref(), p)
	}
}

func TestPointerChasingDerefLevels(t *testing.T) {
	// v = p->next->key with p on the stack: two levels in the address
	// computation of the final load.
	loads := loadsOf(t, `
main:
	lw $t0, 4($sp)     # p
	lw $t1, 8($t0)     # p->next
	lw $v0, 0($t1)     # ->key
	jr $ra
`, "main")
	if got := oneLoad(t, loads, isa.LW, isa.T0).Patterns[0].MaxDeref(); got != 0 {
		t.Errorf("p load deref = %d", got)
	}
	if got := oneLoad(t, loads, isa.LW, isa.T1).Patterns[0].MaxDeref(); got != 1 {
		t.Errorf("p->next deref = %d", got)
	}
	l := oneLoad(t, loads, isa.LW, isa.V0)
	if got := l.Patterns[0].MaxDeref(); got != 2 {
		t.Errorf("p->next->key deref = %d in %q", got, l.Patterns[0])
	}
}

func TestPatternStringNotation(t *testing.T) {
	loads := loadsOf(t, `
main:
	lw $t0, 45($sp)
	addiu $t1, $t0, 30
	lw $v0, 0($t1)
	jr $ra
`, "main")
	l := oneLoad(t, loads, isa.LW, isa.V0)
	// The paper's example: "45(sp)+30".
	if got := l.Patterns[0].String(); got != "45(sp)+30" {
		t.Errorf("pattern = %q, want 45(sp)+30", got)
	}
}

func TestRegisterRecurrence(t *testing.T) {
	loads := loadsOf(t, `
main:
	li $t0, 0x1000
loop:
	lw $t1, 0($t0)
	addiu $t0, $t0, 4
	bne $t1, $zero, loop
	jr $ra
`, "main")
	l := oneLoad(t, loads, isa.LW, isa.T1)
	anyRec := false
	for _, p := range l.Patterns {
		if p.HasRecurrence() {
			anyRec = true
		}
	}
	if !anyRec {
		t.Errorf("no recurrent pattern among %v", l.Patterns)
	}
}

func TestStackSlotRecurrence(t *testing.T) {
	// Induction variable i kept in a stack slot: i = i + 1 each
	// iteration; a load whose address depends on slot 4 is recurrent.
	loads := loadsOf(t, `
main:
	sw $zero, 4($sp)
loop:
	lw $t0, 4($sp)      # i
	sll $t1, $t0, 2
	addiu $t2, $sp, 32
	add $t2, $t2, $t1
	lw $v0, 0($t2)      # a[i]
	lw $t0, 4($sp)
	addiu $t0, $t0, 1
	sw $t0, 4($sp)      # i = i+1
	slti $at, $t0, 10
	bne $at, $zero, loop
	jr $ra
`, "main")
	l := oneLoad(t, loads, isa.LW, isa.V0)
	if !l.Patterns[0].HasRecurrence() {
		t.Errorf("array walk via stack induction var not recurrent: %q", l.Patterns[0])
	}
	// The dereference level must still count through the Rec marker.
	if l.Patterns[0].MaxDeref() != 1 {
		t.Errorf("deref through rec = %d", l.Patterns[0].MaxDeref())
	}
}

func TestNonRecurrentSlotNotMarked(t *testing.T) {
	loads := loadsOf(t, `
main:
	li $t0, 7
	sw $t0, 4($sp)
	lw $t1, 4($sp)
	lw $v0, 0($t1)
	jr $ra
`, "main")
	l := oneLoad(t, loads, isa.LW, isa.V0)
	if l.Patterns[0].HasRecurrence() {
		t.Errorf("straight-line slot marked recurrent: %q", l.Patterns[0])
	}
}

func TestMultiplePatternsAtJoin(t *testing.T) {
	loads := loadsOf(t, `
main:
	beq $a0, $zero, other
	addiu $t0, $sp, 16
	b go
other:
	addiu $t0, $gp, 8
go:
	lw $v0, 0($t0)
	jr $ra
`, "main")
	l := oneLoad(t, loads, isa.LW, isa.V0)
	if len(l.Patterns) != 2 {
		t.Fatalf("patterns = %v, want 2", l.Patterns)
	}
	var sawSP, sawGP bool
	for _, p := range l.Patterns {
		if p.CountSP() == 1 {
			sawSP = true
		}
		if p.CountGP() == 1 {
			sawGP = true
		}
	}
	if !sawSP || !sawGP {
		t.Errorf("join patterns = %v", l.Patterns)
	}
}

func TestParamAndRetLeaves(t *testing.T) {
	loads := loadsOf(t, `
main:
	lw $t0, 0($a0)
	jal helper
	lw $t1, 4($v0)
	jr $ra
helper:
	jr $ra
`, "main")
	p0 := oneLoad(t, loads, isa.LW, isa.T0).Patterns[0]
	if p0.CountParam() != 1 {
		t.Errorf("param pattern = %q", p0)
	}
	p1 := oneLoad(t, loads, isa.LW, isa.T1).Patterns[0]
	if p1.CountRet() != 1 {
		t.Errorf("ret pattern = %q", p1)
	}
}

func TestConstantFoldingLuiOri(t *testing.T) {
	loads := loadsOf(t, `
main:
	lui $t0, 0x1000
	ori $t0, $t0, 0x20
	lw $v0, 4($t0)
	jr $ra
`, "main")
	l := oneLoad(t, loads, isa.LW, isa.V0)
	p := l.Patterns[0]
	if p.Kind != Const || p.Val != 0x10000024 {
		t.Errorf("lui/ori folded to %q, want const 0x10000024", p)
	}
}

func TestMulInAddress(t *testing.T) {
	loads := loadsOf(t, `
main:
	lw $t0, 4($sp)
	li $t1, 12
	mul $t2, $t0, $t1
	addiu $t3, $sp, 64
	add $t3, $t3, $t2
	lw $v0, 0($t3)
	jr $ra
`, "main")
	l := oneLoad(t, loads, isa.LW, isa.V0)
	if !l.Patterns[0].HasMulOrShift() {
		t.Errorf("mul not detected in %q", l.Patterns[0])
	}
}

func TestFPLoadGetsPattern(t *testing.T) {
	loads := loadsOf(t, `
main:
	addiu $t0, $sp, 32
	lwc1 $f0, 8($t0)
	jr $ra
`, "main")
	l := oneLoad(t, loads, isa.LWC1, 4*0)
	if l.Patterns[0].String() != "sp+40" {
		t.Errorf("lwc1 pattern = %q", l.Patterns[0])
	}
}

func TestUnknownForLogicOps(t *testing.T) {
	loads := loadsOf(t, `
main:
	and $t0, $a0, $a1
	lw $v0, 0($t0)
	jr $ra
`, "main")
	l := oneLoad(t, loads, isa.LW, isa.V0)
	if l.Patterns[0].Kind != Unknown {
		t.Errorf("logic-op base = %q, want ?", l.Patterns[0])
	}
}

func TestTruncationOnDeepChain(t *testing.T) {
	src := "main:\n\tmove $t0, $a0\n"
	for i := 0; i < 40; i++ {
		src += "\taddiu $t0, $t0, 1\n\tsll $t0, $t0, 1\n"
	}
	src += "\tlw $v0, 0($t0)\n\tjr $ra\n"
	loads := loadsOf(t, src, "main")
	l := oneLoad(t, loads, isa.LW, isa.V0)
	if !l.Truncated {
		t.Error("deep chain not flagged as truncated")
	}
}

func TestExprHelpers(t *testing.T) {
	e := binary(Add, spLeaf, NewConst(8))
	if !e.Equal(binary(Add, spLeaf, NewConst(8))) {
		t.Error("Equal failed on identical trees")
	}
	if e.Equal(binary(Add, spLeaf, NewConst(12))) {
		t.Error("Equal matched different constants")
	}
	if e.Equal(binary(Add, gpLeaf, NewConst(8))) {
		t.Error("Equal matched sp and gp trees")
	}
	if e.Size() != 3 {
		t.Errorf("Size = %d", e.Size())
	}
	d := NewDeref(e)
	if d.String() != "8(sp)" {
		t.Errorf("deref string = %q", d)
	}
	if got := binary(Sub, NewConst(10), NewConst(4)); got.Val != 6 {
		t.Errorf("const fold sub = %v", got)
	}
	if got := binary(Shl, NewConst(3), NewConst(2)); got.Val != 12 {
		t.Errorf("const fold shl = %v", got)
	}
	if got := binary(Mul, NewConst(3), NewConst(5)); got.Val != 15 {
		t.Errorf("const fold mul = %v", got)
	}
	if got := binary(Shr, NewConst(16), NewConst(2)); got.Val != 4 {
		t.Errorf("const fold shr = %v", got)
	}
	if got := binary(Add, zeroConst, spLeaf); got != spLeaf {
		t.Errorf("0+sp not simplified: %v", got)
	}
}
