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
	if !lw.IsLoad() || lw.IsStore() || lw.MemBytes() != 4 {
		t.Errorf("LW predicates wrong: %+v", lw)
	}
	sb := Inst{Op: SB, Rt: T0, Rs: SP}
	if sb.IsLoad() || !sb.IsStore() || sb.MemBytes() != 1 {
		t.Errorf("SB predicates wrong: %+v", sb)
	}
	lwc1 := Inst{Op: LWC1, Rt: 2, Rs: GP}
	if !lwc1.IsLoad() || lwc1.MemBytes() != 4 {
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
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
