package arm

import (
	"slices"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/isa"
	"delinq/internal/isa/mips"
	"delinq/internal/obj"
)

// lowerAsm assembles MIPS source and lowers it, failing the test on
// any pipeline error.
func lowerAsm(t *testing.T, src string) *obj.Image {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	lowered, err := LowerImage(img)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return lowered
}

// decodeText decodes the lowered image's text words.
func decodeText(t *testing.T, img *obj.Image) []isa.Inst {
	t.Helper()
	out := make([]isa.Inst, len(img.Text))
	for i, w := range img.Text {
		in, err := Decode(w)
		if err != nil {
			t.Fatalf("text[%d] = %#08x does not decode: %v", i, w, err)
		}
		out[i] = in
	}
	return out
}

// ops projects a decoded stream to its opcode sequence.
func ops(insts []isa.Inst) []isa.Op {
	o := make([]isa.Op, len(insts))
	for i, in := range insts {
		o[i] = in.Op
	}
	return o
}

func countOp(insts []isa.Inst, op isa.Op) int {
	n := 0
	for _, in := range insts {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestLowerImageRejectsNonMIPS(t *testing.T) {
	img := lowerAsm(t, ".text\nmain:\nsyscall\n")
	if img.ISAName() != "arm" {
		t.Fatalf("lowered ISA = %q, want arm", img.ISAName())
	}
	if _, err := LowerImage(img); err == nil {
		t.Fatal("lowering an ARM image succeeded; want error")
	}
}

func TestMachineSurface(t *testing.T) {
	m, err := isa.ByName("arm")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "arm" {
		t.Errorf("Name = %q", m.Name())
	}
	if _, hasGP := m.GP(); hasGP {
		t.Error("ARM reports a globals register")
	}
	// Calls clobber the MIPS set plus ip, the index MIPS keeps for $gp.
	want := append(slices.Clone(mips.M.CallClobbered()), ip)
	got := slices.Clone(m.CallClobbered())
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("CallClobbered = %v, want the MIPS set plus ip: %v", got, want)
	}
	if got := isa.ARMRegName(isa.SP); got != "sp" {
		t.Errorf("ARMRegName(SP) = %q, want sp", got)
	}
	in := isa.Inst{Op: isa.AADD, Rd: 1, Rt: 2}
	w, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	back, err := m.Decode(w)
	if err != nil || back != in {
		t.Errorf("machine Encode/Decode round trip: %v %v", back, err)
	}
}

// TestLowerTwoOperandExpansion pins the binop shapes: rd==rs collapses
// to one instruction, rd==rt commutative swaps, rd==rt subtraction
// becomes reverse-subtract, and the general case pairs mov+op.
func TestLowerTwoOperandExpansion(t *testing.T) {
	insts := decodeText(t, lowerAsm(t, `.text
main:
addu $t0, $t0, $t1
addu $t0, $t1, $t0
subu $t0, $t1, $t0
addu $t2, $t0, $t1
syscall
`))
	want := []isa.Op{
		isa.AADD,           // t0 += t1
		isa.AADD,           // commutative swap: t0 += t1
		isa.ARSB,           // t0 = t1 - t0
		isa.AMOV, isa.AADD, // t2 = t0; t2 += t1
		isa.ASVC,
	}
	got := ops(insts)
	if len(got) != len(want) {
		t.Fatalf("lowered to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lowered to %v, want %v", got, want)
		}
	}
}

// TestLowerCompareSplit: MIPS compare-into-register and compare-branch
// forms must split into explicit compare state.
func TestLowerCompareSplit(t *testing.T) {
	insts := decodeText(t, lowerAsm(t, `.text
main:
slt $t0, $t1, $t2
sltu $t0, $t1, $t2
slti $t0, $t1, 5
sltiu $t0, $t1, 5
beq $t0, $t1, done
bltz $t0, done
done:
syscall
`))
	for _, pair := range [][2]isa.Op{
		{isa.ACMP, isa.ASETLT}, {isa.ACMP, isa.ASETLO},
		{isa.ACMPI, isa.ASETLT}, {isa.ACMPI, isa.ASETLO},
		{isa.ACMP, isa.ABEQ}, {isa.ACMPI, isa.ABLT},
	} {
		found := false
		for i := 0; i+1 < len(insts); i++ {
			if insts[i].Op == pair[0] && insts[i+1].Op == pair[1] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %v;%v pair in %v", pair[0], pair[1], ops(insts))
		}
	}
}

// TestLowerGlobalsMaterialise: $gp-relative loads must become
// movw/movt address materialisation plus a zero-offset access — the
// backend has no globals register.
func TestLowerGlobalsMaterialise(t *testing.T) {
	lowered := lowerAsm(t, `.data
g: .word 7
.text
main:
lw $t0, g
sw $t0, g
addiu $t1, $gp, 4
syscall
`)
	insts := decodeText(t, lowered)
	if n := countOp(insts, isa.AMOVW); n < 3 {
		t.Errorf("want >=3 movw (two accesses + one address), got %d in %v", n, ops(insts))
	}
	if countOp(insts, isa.AMOVT) != countOp(insts, isa.AMOVW) {
		t.Errorf("movw/movt imbalance in %v", ops(insts))
	}
	for _, in := range insts {
		if in.Op == isa.ALDR || in.Op == isa.ASTR {
			if in.Rs != ip || in.Imm != 0 {
				t.Errorf("global access %v not through ip+0", in)
			}
		}
	}
}

// TestLowerFusePairShapes unit-tests the pre/post-index peephole.
func TestLowerFusePairShapes(t *testing.T) {
	base, data := isa.Reg(8), isa.Reg(9)
	incr := isa.Inst{Op: isa.ADDIU, Rs: base, Rt: base, Imm: 4}
	load := isa.Inst{Op: isa.LW, Rt: data, Rs: base}
	store := isa.Inst{Op: isa.SW, Rt: data, Rs: base}

	if got, ok := fusePair(incr, load); !ok || got.Op != isa.ALDRPRE || got.Imm != 4 {
		t.Errorf("pre-index load: got %v ok=%v", got, ok)
	}
	if got, ok := fusePair(load, incr); !ok || got.Op != isa.ALDRPOST {
		t.Errorf("post-index load: got %v ok=%v", got, ok)
	}
	if got, ok := fusePair(incr, store); !ok || got.Op != isa.ASTRPRE {
		t.Errorf("pre-index store: got %v ok=%v", got, ok)
	}
	if got, ok := fusePair(store, incr); !ok || got.Op != isa.ASTRPOST {
		t.Errorf("post-index store: got %v ok=%v", got, ok)
	}

	reject := []struct {
		name string
		a, b isa.Inst
	}{
		{"offset load", incr, isa.Inst{Op: isa.LW, Rt: data, Rs: base, Imm: 8}},
		{"different base", incr, isa.Inst{Op: isa.LW, Rt: data, Rs: data}},
		{"data==base", incr, isa.Inst{Op: isa.LW, Rt: base, Rs: base}},
		{"gp base", isa.Inst{Op: isa.ADDIU, Rs: isa.GP, Rt: isa.GP, Imm: 4},
			isa.Inst{Op: isa.LW, Rt: data, Rs: isa.GP}},
		{"non-incr", isa.Inst{Op: isa.ADDIU, Rs: base, Rt: data, Imm: 4}, load},
		{"two loads", load, load},
	}
	for _, r := range reject {
		if got, ok := fusePair(r.a, r.b); ok {
			t.Errorf("%s fused to %v; want no fuse", r.name, got)
		}
	}
}

// TestLowerFusesAcrossStream: the peephole must fire on a real lowered
// stream but never across a branch target.
func TestLowerFusesAcrossStream(t *testing.T) {
	insts := decodeText(t, lowerAsm(t, `.text
main:
lw $t0, 0($t1)
addiu $t1, $t1, 4
syscall
`))
	if countOp(insts, isa.ALDRPOST) != 1 {
		t.Errorf("post-index fuse missing: %v", ops(insts))
	}

	// Same pair, but the increment is a branch target: no fuse.
	insts = decodeText(t, lowerAsm(t, `.text
main:
lw $t0, 0($t1)
loop:
addiu $t1, $t1, 4
bne $t1, $t0, loop
syscall
`))
	if countOp(insts, isa.ALDRPOST) != 0 {
		t.Errorf("fused across a leader: %v", ops(insts))
	}
}

// TestLowerMiscForms drives the remaining lowering cases end to end:
// shifts (immediate and register, including the aliased-amount case),
// nor, lui, immediate logic, zero-source moves, out-of-range memory
// offsets, jumps/calls, and FP pass-through.
func TestLowerMiscForms(t *testing.T) {
	lowered := lowerAsm(t, `.text
.func f
f:
jr $ra
.endfunc
main:
sll $t0, $t1, 2
srl $t0, $t0, 1
srav $t0, $t1, $t0
sllv $t2, $t0, $t1
nor $t0, $t1, $t2
lui $t3, 18
ori $t4, $zero, 99
andi $t5, $t1, 15
xori $t6, $t6, 1
addiu $t7, $zero, -3
addu $t0, $t1, $zero
lw $t0, 16000($t1)
mult $t0, $t1
mflo $t2
jal f
nop
mtc1 $t0, $f0
cvt.s.w $f0, $f0
add.s $f1, $f0, $f0
syscall
`)
	insts := decodeText(t, lowered)
	for _, op := range []isa.Op{
		isa.ALSLI, isa.ALSRI, isa.AASR, isa.ALSL, isa.AMVN,
		isa.AMOVT, isa.AMOVW, isa.AANDI, isa.AEORI, isa.AMOVI,
		isa.AMOV, isa.AADDI, isa.ALDR, isa.MULT, isa.MFLO,
		isa.ABL, isa.ABX, isa.MTC1, isa.CVTSW, isa.ADDS, isa.ASVC,
	} {
		if countOp(insts, op) == 0 {
			t.Errorf("no %v in lowered stream %v", op, ops(insts))
		}
	}
	// The 16000 offset exceeds imm14: the access must go through ip.
	found := false
	for _, in := range insts {
		if in.Op == isa.ALDR && in.Rs == ip {
			found = true
		}
	}
	if !found {
		t.Errorf("out-of-range offset load not rematerialised through ip: %v", ops(insts))
	}
	// Function symbols must be rescaled to the new extents.
	var f *obj.Sym
	for i := range lowered.Syms {
		if lowered.Syms[i].Name == "f" && lowered.Syms[i].Kind == obj.SymFunc {
			f = &lowered.Syms[i]
		}
	}
	if f == nil {
		t.Fatal("function symbol f missing after lowering")
	}
	idx := int((f.Addr - obj.TextBase) / 4)
	if insts[idx].Op != isa.ABX {
		t.Errorf("f entry lowered to %v, want ABX", insts[idx])
	}
}
