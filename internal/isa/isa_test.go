package isa

import (
	"testing"
)

func TestRegByName(t *testing.T) {
	cases := []struct {
		name string
		want Reg
	}{
		{"zero", Zero}, {"sp", SP}, {"gp", GP}, {"ra", RA},
		{"t0", T0}, {"a3", A3}, {"v1", V1}, {"29", SP}, {"28", GP},
	}
	for _, c := range cases {
		got, ok := RegByName(c.name)
		if !ok || got != c.want {
			t.Errorf("RegByName(%q) = %v, %v; want %v", c.name, got, ok, c.want)
		}
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName(bogus) succeeded")
	}
	if _, ok := RegByName("32"); ok {
		t.Error("RegByName(32) succeeded")
	}
}

func TestRegNameRoundtrip(t *testing.T) {
	for r := Reg(0); r < 32; r++ {
		name := RegName(r)
		got, ok := RegByName(name[1:])
		if !ok || got != r {
			t.Errorf("round trip of %s failed: got %v, %v", name, got, ok)
		}
	}
}

func TestInstPredicates(t *testing.T) {
	lw := Inst{Op: LW, Rt: T0, Rs: SP, Imm: 4}
	if !lw.IsLoad() || lw.IsStore() {
		t.Errorf("LW predicates wrong: %+v", lw)
	}
	sb := Inst{Op: SB, Rt: T0, Rs: SP}
	if sb.IsLoad() || !sb.IsStore() {
		t.Errorf("SB predicates wrong: %+v", sb)
	}
	lwc1 := Inst{Op: LWC1, Rt: 2, Rs: GP}
	if !lwc1.IsLoad() || !lwc1.IsFPMem() {
		t.Errorf("LWC1 predicates wrong: %+v", lwc1)
	}
	if !(Inst{Op: JR, Rs: RA}).IsReturn() {
		t.Error("jr $ra not a return")
	}
	if (Inst{Op: JR, Rs: T0}).IsReturn() {
		t.Error("jr $t0 is a return")
	}
	if !(Inst{Op: JAL}).IsCall() || !(Inst{Op: JALR, Rs: T9}).IsCall() {
		t.Error("call predicate wrong")
	}
	for _, op := range []Op{BEQ, BNE, BLEZ, BGTZ, BLTZ, BGEZ, BC1T, BC1F} {
		if !(Inst{Op: op}).IsBranch() {
			t.Errorf("%v not a branch", op)
		}
	}
	if !(Inst{Op: SYSCALL}).EndsBlock() || !(Inst{Op: J}).EndsBlock() {
		t.Error("EndsBlock wrong")
	}
	if (Inst{Op: ADD}).EndsBlock() {
		t.Error("ADD ends block")
	}

	// ARM addressing: only pre/post-indexed forms write the base back,
	// and a post-indexed access uses the base before its increment.
	for _, c := range []struct {
		op         Op
		off        int32
		writesBack bool
	}{
		{ALDR, 8, false}, {ASTRB, 8, false},
		{ALDRPRE, 8, true}, {ASTRPRE, 8, true},
		{ALDRPOST, 0, true}, {ASTRPOST, 0, true},
	} {
		in := Inst{Op: c.op, Rt: T0, Rs: T1, Imm: 8}
		if in.MemOffset() != c.off || in.WritesBack() != c.writesBack {
			t.Errorf("%s: MemOffset %d WritesBack %v, want %d %v", c.op.Name(), in.MemOffset(), in.WritesBack(), c.off, c.writesBack)
		}
	}
	if !(Inst{Op: AVLDR}).IsFPMem() || !(Inst{Op: AVSTR}).IsFPMem() || (Inst{Op: ALDR}).IsFPMem() {
		t.Error("ARM IsFPMem wrong")
	}
	if !(Inst{Op: AVLDR}).IsLoad() || !(Inst{Op: ASTRPOST}).IsStore() || !(Inst{Op: ALDRSH}).IsLoad() {
		t.Error("ARM memory predicates wrong")
	}
	if !(Inst{Op: ABX, Rs: RA}).IsReturn() || !(Inst{Op: ABLX}).IsCall() || !(Inst{Op: ASVC}).EndsBlock() {
		t.Error("ARM control predicates wrong")
	}
	for _, c := range []struct {
		in     Inst
		target uint32
		ok     bool
	}{
		{Inst{Op: J, Imm: 0x00400040 >> 2}, 0x00400040, true},
		{Inst{Op: AB, Imm: -2}, 0x0040000c, true},
		{Inst{Op: ABL, Imm: 3}, 0x00400020, true},
		{Inst{Op: ABX, Rs: RA}, 0, false},
		{Inst{Op: ABEQ, Imm: 3}, 0, false},
	} {
		if got, ok := c.in.DirectJumpTarget(0x00400010); got != c.target || ok != c.ok {
			t.Errorf("%v DirectJumpTarget = %#x, %v; want %#x, %v", c.in, got, ok, c.target, c.ok)
		}
	}
}

func TestBranchAndJumpTargets(t *testing.T) {
	b := Inst{Op: BNE, Rs: T0, Rt: Zero, Imm: -2}
	if got := b.BranchTarget(0x400010); got != 0x40000c {
		t.Errorf("BranchTarget = %#x, want 0x40000c", got)
	}
	j := Inst{Op: J, Imm: int32(0x00400040 >> 2)}
	if got := j.JumpTarget(0x00400000); got != 0x00400040 {
		t.Errorf("JumpTarget = %#x, want 0x00400040", got)
	}
}

func TestDefsUses(t *testing.T) {
	cases := []struct {
		in   Inst
		defs []Reg
		uses []Reg
	}{
		{Inst{Op: ADD, Rd: T0, Rs: T1, Rt: T2}, []Reg{T0}, []Reg{T1, T2}},
		{Inst{Op: ADDIU, Rt: T0, Rs: SP, Imm: 8}, []Reg{T0}, []Reg{SP}},
		{Inst{Op: LW, Rt: T0, Rs: SP, Imm: 8}, []Reg{T0}, []Reg{SP}},
		{Inst{Op: SW, Rt: T0, Rs: SP, Imm: 8}, nil, []Reg{SP, T0}},
		{Inst{Op: LUI, Rt: T0, Imm: 1}, []Reg{T0}, nil},
		{Inst{Op: JAL, Imm: 100}, []Reg{RA}, nil},
		{Inst{Op: JR, Rs: RA}, nil, []Reg{RA}},
		{Inst{Op: SLL, Rd: T0, Rt: T1, Imm: 2}, []Reg{T0}, []Reg{T1}},
		{Inst{Op: LWC1, Rt: 4, Rs: GP, Imm: 0}, nil, []Reg{GP}},
		{Inst{Op: MFC1, Rt: T0, Rd: 2}, []Reg{T0}, nil},
		{Inst{Op: MTC1, Rt: T0, Rd: 2}, nil, []Reg{T0}},
	}
	for _, c := range cases {
		gotD, gotU := c.in.Defs(), c.in.Uses()
		if !regsEqual(gotD, c.defs) {
			t.Errorf("%v Defs = %v, want %v", c.in, gotD, c.defs)
		}
		if !regsEqualUnordered(gotU, c.uses) {
			t.Errorf("%v Uses = %v, want %v", c.in, gotU, c.uses)
		}
	}
}

func regsEqual(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func regsEqualUnordered(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[Reg]int{}
	for _, r := range a {
		m[r]++
	}
	for _, r := range b {
		m[r]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: LW, Rt: T0, Rs: SP, Imm: 8}, "lw $t0, 8($sp)"},
		{Inst{Op: ADD, Rd: T0, Rs: T1, Rt: T2}, "add $t0, $t1, $t2"},
		{Inst{Op: SLL, Rd: T0, Rt: T1, Imm: 2}, "sll $t0, $t1, 2"},
		{Inst{Op: ADDIU, Rt: V0, Rs: GP, Imm: -4}, "addiu $v0, $gp, -4"},
		{Inst{Op: LUI, Rt: AT, Imm: 4096}, "lui $at, 4096"},
		{Inst{Op: JR, Rs: RA}, "jr $ra"},
		{Inst{Op: NOP}, "nop"},
		{Inst{Op: SYSCALL}, "syscall"},
		{Inst{Op: LWC1, Rt: 4, Rs: SP, Imm: 12}, "lwc1 $f4, 12($sp)"},
		{Inst{Op: ADDS, Rd: 0, Rs: 2, Rt: 4}, "add.s $f0, $f2, $f4"},

		// One ARM case per rendering shape.
		{Inst{Op: AMOV, Rd: T0, Rs: T1}, "mov r8, r9"},
		{Inst{Op: ASUB, Rd: T0, Rt: A0}, "sub r8, r4"},
		{Inst{Op: AADDI, Rd: SP, Imm: -16}, "add sp, #-16"},
		{Inst{Op: ALSLI, Rd: T0, Imm: 2}, "lsl r8, #2"},
		{Inst{Op: AMOVI, Rd: V0, Imm: -1}, "movi r2, #-1"},
		{Inst{Op: AMOVW, Rd: GP, Imm: 4096}, "movw ip, #4096"},
		{Inst{Op: AMOVT, Rd: GP, Imm: 4096}, "movt ip, #4096"},
		{Inst{Op: ACMP, Rs: T0, Rt: T1}, "cmp r8, r9"},
		{Inst{Op: ACMPI, Rs: T0, Imm: 10}, "cmp r8, #10"},
		{Inst{Op: ASETLT, Rd: T2}, "setlt r10"},
		{Inst{Op: ABNE, Imm: -3}, "bne -3"},
		{Inst{Op: AB, Imm: 5}, "b 5"},
		{Inst{Op: ABL, Imm: 12}, "bl 12"},
		{Inst{Op: ABX, Rs: RA}, "bx lr"},
		{Inst{Op: ABLX, Rd: RA, Rs: T9}, "blx lr, r25"},
		{Inst{Op: ASVC}, "svc"},
		{Inst{Op: ALDR, Rt: T0, Rs: SP, Imm: 4}, "ldr r8, [sp, #4]"},
		{Inst{Op: ASTRB, Rt: Zero, Rs: FP, Imm: -1}, "strb zr, [fp, #-1]"},
		{Inst{Op: ALDRPRE, Rt: T0, Rs: T1, Imm: 4}, "ldr r8, [r9, #4]!"},
		{Inst{Op: ASTRPOST, Rt: T0, Rs: T1, Imm: -4}, "str r8, [r9], #-4"},
		{Inst{Op: AVLDR, Rt: 4, Rs: SP, Imm: 12}, "vldr s4, [sp, #12]"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
