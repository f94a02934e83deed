package dataflow

import (
	"testing"

	"delinq/internal/asm"
	"delinq/internal/cfg"
	"delinq/internal/disasm"
	"delinq/internal/isa"
	"delinq/internal/isa/mips"
)

func analyze(t *testing.T, src, fn string) *Result {
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
	return AnalyzeMachine(cfg.Build(f), mips.M)
}

func kinds(defs []Def) (inst, entry, call int) {
	for _, d := range defs {
		switch d.Kind {
		case DefInst:
			inst++
		case DefEntry:
			entry++
		case DefCall:
			call++
		}
	}
	return
}

func TestLocalDefinition(t *testing.T) {
	r := analyze(t, `
main:
	li $t0, 5
	addiu $t1, $t0, 1
	jr $ra
`, "main")
	defs := r.ReachingAt(1, isa.T0, nil)
	if len(defs) != 1 || defs[0].Kind != DefInst || defs[0].Inst != 0 {
		t.Errorf("defs = %+v", defs)
	}
}

func TestEntryDefinition(t *testing.T) {
	r := analyze(t, `
main:
	addiu $t0, $a0, 4
	jr $ra
`, "main")
	defs := r.ReachingAt(0, isa.A0, nil)
	if len(defs) != 1 || defs[0].Kind != DefEntry {
		t.Errorf("a0 defs = %+v", defs)
	}
	// $zero has no definitions.
	if got := r.ReachingAt(0, isa.Zero, nil); got != nil {
		t.Errorf("zero defs = %+v", got)
	}
}

func TestKillWithinBlock(t *testing.T) {
	r := analyze(t, `
main:
	li $t0, 1
	li $t0, 2
	addiu $t1, $t0, 0
	jr $ra
`, "main")
	defs := r.ReachingAt(2, isa.T0, nil)
	if len(defs) != 1 || defs[0].Inst != 1 {
		t.Errorf("defs = %+v; first li should be killed", defs)
	}
}

func TestJoinMergesDefs(t *testing.T) {
	r := analyze(t, `
main:
	beq $a0, $zero, other
	li $t0, 1
	b join
other:
	li $t0, 2
join:
	addiu $t1, $t0, 0
	jr $ra
`, "main")
	f := r.Graph.Fn
	joinIdx := -1
	for i, in := range f.Insts {
		if in.Op == isa.ADDIU && in.Rt == isa.T1 {
			joinIdx = i
		}
	}
	defs := r.ReachingAt(joinIdx, isa.T0, nil)
	ni, ne, _ := kinds(defs)
	if ni != 2 {
		t.Errorf("want 2 instruction defs at join, got %+v", defs)
	}
	// The entry def of $t0 is killed on both paths.
	if ne != 0 {
		t.Errorf("entry def leaked through both arms: %+v", defs)
	}
}

func TestOneArmedIfKeepsEntryDef(t *testing.T) {
	r := analyze(t, `
main:
	beq $a0, $zero, join
	li $t0, 1
join:
	addiu $t1, $t0, 0
	jr $ra
`, "main")
	f := r.Graph.Fn
	joinIdx := -1
	for i, in := range f.Insts {
		if in.Op == isa.ADDIU && in.Rt == isa.T1 {
			joinIdx = i
		}
	}
	defs := r.ReachingAt(joinIdx, isa.T0, nil)
	ni, ne, _ := kinds(defs)
	if ni != 1 || ne != 1 {
		t.Errorf("want inst+entry defs, got %+v", defs)
	}
}

func TestCallClobbers(t *testing.T) {
	r := analyze(t, `
main:
	li $t0, 1
	li $v0, 2
	jal helper
	addiu $t1, $t0, 0
	addiu $t2, $v0, 0
	jr $ra
helper:
	jr $ra
`, "main")
	f := r.Graph.Fn
	useT0, useV0 := -1, -1
	for i, in := range f.Insts {
		if in.Op == isa.ADDIU && in.Rt == isa.T1 {
			useT0 = i
		}
		if in.Op == isa.ADDIU && in.Rt == isa.T2 {
			useV0 = i
		}
	}
	// After the call, both $t0 and $v0 have only the call-clobber def.
	for _, c := range []struct {
		at  int
		reg isa.Reg
	}{{useT0, isa.T0}, {useV0, isa.V0}} {
		defs := r.ReachingAt(c.at, c.reg, nil)
		ni, _, nc := kinds(defs)
		if nc != 1 || ni != 0 {
			t.Errorf("%v after call: %+v", c.reg, defs)
		}
	}
	// Callee-saved $s0 is not clobbered.
	defs := r.ReachingAt(useT0, isa.S0, nil)
	if _, ne, nc := kinds(defs); ne != 1 || nc != 0 {
		t.Errorf("s0 after call: %+v", defs)
	}
}

func TestLoopCarriedDefinition(t *testing.T) {
	r := analyze(t, `
main:
	li $t0, 0
loop:
	addiu $t0, $t0, 4
	bne $t0, $a0, loop
	jr $ra
`, "main")
	// At the addiu (index 1), both the initial li and the addiu itself
	// reach around the back edge.
	defs := r.ReachingAt(1, isa.T0, nil)
	if len(defs) != 2 {
		t.Fatalf("loop defs = %+v", defs)
	}
	insts := map[int32]bool{}
	for _, d := range defs {
		insts[d.Inst] = true
	}
	if !insts[0] || !insts[1] {
		t.Errorf("want defs from inst 0 and 1, got %+v", defs)
	}
}

func TestSyscallClobbersV0(t *testing.T) {
	r := analyze(t, `
main:
	li $v0, 9
	syscall
	addiu $t0, $v0, 0
	jr $ra
`, "main")
	defs := r.ReachingAt(2, isa.V0, nil)
	if _, _, nc := kinds(defs); nc != 1 || len(defs) != 1 {
		t.Errorf("v0 after syscall: %+v", defs)
	}
}
