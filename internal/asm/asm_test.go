package asm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"delinq/internal/isa"
	"delinq/internal/isa/mips"
	"delinq/internal/obj"
)

func mustAssemble(t *testing.T, src string) *obj.Image {
	t.Helper()
	img, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return img
}

func decodeAll(t *testing.T, img *obj.Image) []isa.Inst {
	t.Helper()
	out := make([]isa.Inst, len(img.Text))
	for i, w := range img.Text {
		in, err := mips.Decode(w)
		if err != nil {
			t.Fatalf("decode word %d (%#08x): %v", i, w, err)
		}
		out[i] = in
	}
	return out
}

func TestBasicProgram(t *testing.T) {
	img := mustAssemble(t, `
	.text
main:
	addiu $sp, $sp, -16
	li $t0, 5
	sw $t0, 8($sp)
	lw $t1, 8($sp)
	addiu $sp, $sp, 16
	jr $ra
`)
	insts := decodeAll(t, img)
	if len(insts) != 6 {
		t.Fatalf("got %d instructions, want 6", len(insts))
	}
	want := []isa.Inst{
		{Op: isa.ADDIU, Rt: isa.SP, Rs: isa.SP, Imm: -16},
		{Op: isa.ADDIU, Rt: isa.T0, Rs: isa.Zero, Imm: 5},
		{Op: isa.SW, Rt: isa.T0, Rs: isa.SP, Imm: 8},
		{Op: isa.LW, Rt: isa.T1, Rs: isa.SP, Imm: 8},
		{Op: isa.ADDIU, Rt: isa.SP, Rs: isa.SP, Imm: 16},
		{Op: isa.JR, Rs: isa.RA},
	}
	for i := range want {
		if insts[i] != want[i] {
			t.Errorf("inst %d = %v, want %v", i, insts[i], want[i])
		}
	}
	if img.Entry != obj.TextBase {
		t.Errorf("entry = %#x", img.Entry)
	}
}

func TestBranchResolution(t *testing.T) {
	img := mustAssemble(t, `
main:
	li $t0, 10
loop:
	addiu $t0, $t0, -1
	bne $t0, $zero, loop
	jr $ra
`)
	insts := decodeAll(t, img)
	// bne is the third instruction (index 2); loop is at index 1.
	bne := insts[2]
	if bne.Op != isa.BNE {
		t.Fatalf("inst 2 = %v", bne)
	}
	pc := obj.TextBase + 2*4
	if got := bne.BranchTarget(pc); got != obj.TextBase+4 {
		t.Errorf("branch target = %#x, want %#x", got, obj.TextBase+4)
	}
}

func TestForwardBranch(t *testing.T) {
	img := mustAssemble(t, `
main:
	beq $a0, $zero, done
	addiu $v0, $zero, 1
done:
	jr $ra
`)
	insts := decodeAll(t, img)
	if got := insts[0].BranchTarget(obj.TextBase); got != obj.TextBase+8 {
		t.Errorf("forward branch target = %#x", got)
	}
}

func TestPseudoExpansions(t *testing.T) {
	img := mustAssemble(t, `
main:
	li $t0, 100000      # 2 words
	move $t1, $t0       # addu
	neg $t2, $t1        # sub from zero
	not $t3, $t2        # nor
	b end               # beq zero,zero
	nop
end:
	jr $ra
`)
	insts := decodeAll(t, img)
	if insts[0].Op != isa.LUI || insts[1].Op != isa.ORI {
		t.Errorf("li big = %v, %v", insts[0], insts[1])
	}
	if insts[2].Op != isa.ADDU || insts[2].Rt != isa.Zero {
		t.Errorf("move = %v", insts[2])
	}
	if insts[3].Op != isa.SUB || insts[3].Rs != isa.Zero {
		t.Errorf("neg = %v", insts[3])
	}
	if insts[4].Op != isa.NOR || insts[4].Rt != isa.Zero {
		t.Errorf("not = %v", insts[4])
	}
	if insts[5].Op != isa.BEQ || insts[5].Rs != isa.Zero || insts[5].Rt != isa.Zero {
		t.Errorf("b = %v", insts[5])
	}
}

func TestComparisonBranches(t *testing.T) {
	img := mustAssemble(t, `
main:
	bge $t0, $t1, out
	blt $t0, $t1, out
	bgt $t0, $t1, out
	ble $t0, $t1, out
out:
	jr $ra
`)
	insts := decodeAll(t, img)
	if len(insts) != 9 {
		t.Fatalf("got %d instructions, want 9", len(insts))
	}
	// bge: slt $at, t0, t1; beq $at, 0
	if insts[0].Op != isa.SLT || insts[0].Rd != isa.AT || insts[1].Op != isa.BEQ {
		t.Errorf("bge = %v; %v", insts[0], insts[1])
	}
	// blt: slt; bne
	if insts[2].Op != isa.SLT || insts[3].Op != isa.BNE {
		t.Errorf("blt = %v; %v", insts[2], insts[3])
	}
	// bgt swaps operands
	if insts[4].Rs != isa.T1 || insts[4].Rt != isa.T0 {
		t.Errorf("bgt cmp = %v", insts[4])
	}
	// All four branch to "out" (inst index 8).
	for _, bi := range []int{1, 3, 5, 7} {
		pc := obj.TextBase + uint32(bi)*4
		if got := insts[bi].BranchTarget(pc); got != obj.TextBase+8*4 {
			t.Errorf("branch %d target = %#x", bi, got)
		}
	}
}

func TestDataSegmentAndGPRelative(t *testing.T) {
	img := mustAssemble(t, `
	.data
counter: .word 7
table:   .word 1, 2, 3, 4
msg:     .asciiz "hi"
buf:     .space 16
	.text
main:
	lw $t0, counter        # gp-relative
	la $t1, table
	sw $t0, counter($gp)
	jr $ra
`)
	sym, ok := img.Lookup("counter")
	if !ok || sym.Addr != obj.DataBase || sym.Size != 4 {
		t.Fatalf("counter = %+v, %v", sym, ok)
	}
	tbl, _ := img.Lookup("table")
	if tbl.Size != 16 {
		t.Errorf("table size = %d", tbl.Size)
	}
	msg, _ := img.Lookup("msg")
	if msg.Size != 3 { // "hi\0"
		t.Errorf("msg size = %d", msg.Size)
	}
	if img.Data[0] != 7 {
		t.Errorf("counter initial value wrong: % x", img.Data[:4])
	}
	if string(img.Data[20:22]) != "hi" {
		t.Errorf("msg bytes wrong: % x", img.Data[20:24])
	}
	insts := decodeAll(t, img)
	gpOff := int32(obj.DataBase - img.GPValue) // -0x8000
	if insts[0].Op != isa.LW || insts[0].Rs != isa.GP || insts[0].Imm != gpOff {
		t.Errorf("lw counter = %v, want gp%+d", insts[0], gpOff)
	}
	if insts[1].Op != isa.ADDIU || insts[1].Rs != isa.GP || insts[1].Imm != gpOff+4 {
		t.Errorf("la table = %v", insts[1])
	}
	if insts[2].Op != isa.SW || insts[2].Rs != isa.GP || insts[2].Imm != gpOff {
		t.Errorf("sw counter($gp) = %v", insts[2])
	}
}

func TestFunctionMetadata(t *testing.T) {
	img := mustAssemble(t, `
	.struct Node, key:0:int, next:4:ptr:struct:Node
	.text
	.func main, frame=32
	.local x:8:int
	.local p:12:ptr:struct:Node
main:
	addiu $sp, $sp, -32
	jal helper
	addiu $sp, $sp, 32
	jr $ra
	.endfunc
	.func helper, frame=0
helper:
	jr $ra
	.endfunc
`)
	m, ok := img.Lookup("main")
	if !ok || m.Kind != obj.SymFunc {
		t.Fatal("main not found")
	}
	if m.FrameSize != 32 || len(m.Locals) != 2 {
		t.Errorf("main meta = frame %d, locals %v", m.FrameSize, m.Locals)
	}
	if m.Locals[1].Type.String() != "ptr:struct:Node" {
		t.Errorf("local p type = %v", m.Locals[1].Type)
	}
	if m.Size != 16 {
		t.Errorf("main size = %d, want 16", m.Size)
	}
	h, _ := img.Lookup("helper")
	if h.Addr != obj.TextBase+16 || h.Size != 4 {
		t.Errorf("helper = %+v", h)
	}
	node := img.Structs["Node"]
	if node == nil || len(node.Fields) != 2 || node.Fields[1].Type.Elem != node {
		t.Errorf("Node struct = %+v", node)
	}
}

func TestObjectTypeAnnotation(t *testing.T) {
	img := mustAssemble(t, `
	.data
	.object grid, arr:10:arr:10:int
grid:	.space 400
	.text
main:
	jr $ra
`)
	g, ok := img.Lookup("grid")
	if !ok || g.Type.String() != "arr:10:arr:10:int" {
		t.Fatalf("grid = %+v", g)
	}
}

func TestFunctionPointerTableFixup(t *testing.T) {
	img := mustAssemble(t, `
	.data
handlers: .word f1, f2
	.text
main:
	jr $ra
f1:
	jr $ra
f2:
	jr $ra
`)
	f1, _ := img.Lookup("f1")
	f2, _ := img.Lookup("f2")
	if f1 == nil || f2 == nil {
		t.Fatal("function-pointer targets not promoted to functions")
	}
	got1 := uint32(img.Data[0]) | uint32(img.Data[1])<<8 | uint32(img.Data[2])<<16 | uint32(img.Data[3])<<24
	if got1 != f1.Addr {
		t.Errorf("handlers[0] = %#x, want %#x", got1, f1.Addr)
	}
	got2 := uint32(img.Data[4]) | uint32(img.Data[5])<<8 | uint32(img.Data[6])<<16 | uint32(img.Data[7])<<24
	if got2 != f2.Addr {
		t.Errorf("handlers[1] = %#x, want %#x", got2, f2.Addr)
	}
}

func TestJalAndLaPromoteFunctions(t *testing.T) {
	img := mustAssemble(t, `
main:
	jal work
	la $t0, work
	jalr $t0
	jr $ra
work:
loop:
	bne $t0, $zero, loop
	jr $ra
`)
	w, ok := img.Lookup("work")
	if !ok {
		t.Fatal("work not a function symbol")
	}
	if w.Size != 8 {
		t.Errorf("work size = %d, want 8", w.Size)
	}
	if _, ok := img.Lookup("loop"); ok {
		t.Error("loop label wrongly promoted to a function")
	}
	// la of a text symbol must not be gp-relative.
	insts := decodeAll(t, img)
	if insts[1].Op != isa.LUI {
		t.Errorf("la of text sym = %v, want lui pair", insts[1])
	}
}

func TestFloatDirectiveAndOps(t *testing.T) {
	img := mustAssemble(t, `
	.data
pi: .float 3.14159, 2.5
	.text
main:
	l.s $f0, pi
	li.s $f2, 1.0
	add.s $f4, $f0, $f2
	c.lt.s $f0, $f2
	bc1t done
	mul.s $f4, $f4, $f4
done:
	s.s $f4, pi+4($gp)
	jr $ra
`)
	insts := decodeAll(t, img)
	if insts[0].Op != isa.LWC1 || insts[0].Rs != isa.GP {
		t.Errorf("l.s = %v", insts[0])
	}
	// li.s = lui/ori/mtc1
	if insts[1].Op != isa.LUI || insts[2].Op != isa.ORI || insts[3].Op != isa.MTC1 {
		t.Errorf("li.s = %v %v %v", insts[1], insts[2], insts[3])
	}
	if insts[4].Op != isa.ADDS || insts[5].Op != isa.CLTS || insts[6].Op != isa.BC1T {
		t.Errorf("fp ops = %v %v %v", insts[4], insts[5], insts[6])
	}
	// 2.5 little-endian float at data+4.
	if img.Data[7] != 0x40 || img.Data[6] != 0x20 {
		t.Errorf("float bytes = % x", img.Data[4:8])
	}
}

func TestEntryDirective(t *testing.T) {
	img := mustAssemble(t, `
	.entry start2
start1:
	jr $ra
start2:
	jr $ra
`)
	if img.Entry != obj.TextBase+4 {
		t.Errorf("entry = %#x", img.Entry)
	}
}

func TestStartSymbolPreferred(t *testing.T) {
	img := mustAssemble(t, `
main:
	jr $ra
__start:
	jal main
	jr $ra
`)
	if img.Entry != obj.TextBase+4 {
		t.Errorf("entry = %#x, want __start", img.Entry)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown mnemonic", "main:\n\tfrobnicate $t0\n", "unknown mnemonic"},
		{"unknown label", "main:\n\tj nowhere\n", "unknown label"},
		{"unknown symbol", "main:\n\tla $t0, nothing\n", "unknown symbol"},
		{"duplicate label", "main:\nmain:\n\tjr $ra\n", "duplicate symbol"},
		{"bad register", "main:\n\tadd $t0, $qq, $t1\n", "unknown register"},
		{"missing operand", "main:\n\tadd $t0, $t1\n", "wants 3 operands"},
		{"no entry", "helper:\n\tjr $ra\n", `entry symbol "main" not defined`},
		{"inst in data", ".data\nmain:\n\tadd $t0, $t1, $t2\n", "in data segment"},
		{"bad directive", "main:\n\tjr $ra\n\t.bogus 3\n", "unknown directive"},
		{"endfunc alone", ".endfunc\nmain:\n\tjr $ra\n", ".endfunc without .func"},
		{"local outside func", ".local x:0:int\nmain:\n\tjr $ra\n", "outside .func"},
		{"mem offset range", "main:\n\tlw $t0, 99999($sp)\n", "out of range"},
		{"bad struct field", ".struct N, oops\nmain:\n\tjr $ra\n", "struct field wants"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatal("assembly succeeded; want error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestCommentsAndCharLiterals(t *testing.T) {
	img := mustAssemble(t, `
# full line comment
	.data
s: .asciiz "a#b"   # hash inside string stays
	.text
main:	# trailing comment
	li $t0, 'A'
	jr $ra
`)
	if string(img.Data[:3]) != "a#b" {
		t.Errorf("string data = %q", img.Data[:4])
	}
	insts := decodeAll(t, img)
	if insts[0].Imm != 'A' {
		t.Errorf("char literal = %v", insts[0])
	}
}

func TestAlignAndHalfByte(t *testing.T) {
	img := mustAssemble(t, `
	.data
b: .byte 1, 2, 3
	.align 2
w: .word 0x11223344
h: .half 0x5566
	.text
main:
	jr $ra
`)
	w, _ := img.Lookup("w")
	if w.Addr != obj.DataBase+4 {
		t.Errorf("w addr = %#x, want aligned", w.Addr)
	}
	if img.Data[4] != 0x44 || img.Data[7] != 0x11 {
		t.Errorf("word bytes = % x", img.Data[4:8])
	}
	h, _ := img.Lookup("h")
	if img.Data[h.Addr-obj.DataBase] != 0x66 {
		t.Errorf("half bytes wrong")
	}
}

// TestProgramTextRoundTrip: a program built statement by statement,
// with every operand kind and metadata notation, renders to text that
// Assemble reads back into the image AssembleProgram links.
func TestProgramTextRoundTrip(t *testing.T) {
	node := &obj.Type{Kind: obj.KindStruct, Name: "node"}
	node.Fields = []obj.Field{{Name: "v", Offset: 0, Type: obj.TypeFloat}, {Name: "next", Offset: 4, Type: obj.PointerTo(node)}}
	p := &Program{}
	p.Dir(DStruct, Typ(node))
	p.Dir(DData)
	p.Dir(DObject, Sym("tbl"), Typ(obj.ArrayOf(3, obj.TypeInt)))
	p.LabelDir("tbl", DWord, Imm(-7), Operand{Kind: KSym, Name: "tbl", Int: 4}, Sym("main"))
	p.LabelDir("f", DFloat, Float(0.1), Imm(16777217))
	p.LabelDir("s", DAsciiz, Str("a\tb\"c\x00"))
	p.Dir(DAlign, Imm(2))
	p.LabelDir("h", DHalf, Imm(0x5566))
	p.Dir(DText)
	p.Dir(DFunc, Sym("main"), Imm(16))
	p.Dir(DParam, Sym("x"), Imm(8), Typ(obj.PointerTo(node)))
	p.Label("main")
	p.Inst(ADDIU, Reg(isa.SP), Reg(isa.SP), Imm(-16))
	p.Inst(LW, Reg(isa.T0), Operand{Kind: KSym, Name: "tbl", Int: 8})
	p.Inst(LW, Reg(isa.T1), Operand{Kind: KMem, Name: "tbl", Int: 4, Reg: isa.GP})
	p.Inst(LS, FReg(4), Mem(-4, isa.SP))
	p.Inst(LIS, FReg(6), Float(2.5e-7))
	p.Inst(BLT, Reg(isa.T0), Reg(isa.T1), Sym("main"))
	p.Inst(JALR, Reg(isa.T2))
	p.Inst(JR, Reg(isa.RA))
	p.Dir(DEndfunc)

	want, err := AssembleProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Assemble(p.Text())
	if err != nil {
		t.Fatalf("%v\n%s", err, p.Text())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("text round trip differs\n%s", p.Text())
	}
}

// TestMalformedStatements: a statement whose operands do not fit its
// mnemonic or directive is a diagnostic, not a panic in a later pass.
func TestMalformedStatements(t *testing.T) {
	for name, build := range map[string]func(p *Program){
		"too few":    func(p *Program) { p.Inst(ADD, Reg(isa.T0)) },
		"wrong kind": func(p *Program) { p.Inst(LW, Reg(isa.T0), Imm(4)) },
		"jalr arity": func(p *Program) { p.Inst(JALR) },
		"bad struct": func(p *Program) { p.Dir(DStruct, Imm(1)) },
		"bad local":  func(p *Program) { p.Dir(DLocal, Sym("x"), Imm(0)) },
		"both kinds": func(p *Program) { p.add(2, "", DText, NOP, nil) },
		"no such op": func(p *Program) { p.Inst(Mnemonic(250)) },
	} {
		p := &Program{}
		p.Label("main")
		build(p)
		if _, err := AssembleProgram(p); err == nil || !strings.Contains(err.Error(), "asm: line 2:") {
			t.Errorf("%s: error %v, want a line 2 diagnostic", name, err)
		}
	}
}

// TestAssembleReproducible: function symbols that have no .func (here
// five call targets, laid out in reverse call order) are listed in
// address order, so repeated assembly encodes to identical bytes.
func TestAssembleReproducible(t *testing.T) {
	const src = `
	.text
main:
	jal f1
	jal f2
	jal f3
	jal f4
	jal f5
	jr $ra
f5:	jr $ra
f4:	jr $ra
f3:	jr $ra
f2:	jr $ra
f1:	jr $ra
`
	var first []byte
	for i := 0; i < 20; i++ {
		img := mustAssemble(t, src)
		b, err := img.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b
			for j := 1; j < len(img.Syms); j++ {
				if img.Syms[j].Addr < img.Syms[j-1].Addr {
					t.Fatalf("symbols out of address order: %+v", img.Syms)
				}
			}
			continue
		}
		if !bytes.Equal(b, first) {
			t.Fatalf("assembly %d encodes differently from the first", i)
		}
	}
}

func TestRoundtripThroughImageFile(t *testing.T) {
	img := mustAssemble(t, `
	.data
v: .word 42
	.text
main:
	lw $v0, v
	jr $ra
`)
	b, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj.DecodeImage(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Text) != len(img.Text) || got.Text[0] != img.Text[0] {
		t.Error("text lost in round trip")
	}
}

func TestParseIntForms(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"-42", -42, true},
		{"0x10", 16, true},
		{"0xdeadbeef", 0xdeadbeef, true}, // 64-bit parse; callers truncate
		{"'A'", 65, true},
		{"'\\n'", 10, true},
		{" 7 ", 7, true},
		{"zz", 0, false},
		{"''", 0, false},
	}
	for _, c := range cases {
		got, err := parseInt(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseInt(%q) err = %v, ok want %v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseInt(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSplitSymOffset(t *testing.T) {
	cases := []struct {
		in  string
		sym string
		off int64
	}{
		{"foo", "foo", 0},
		{"foo+8", "foo", 8},
		{"foo-4", "foo", -4},
		{"a_b.c+0x10", "a_b.c", 16},
		{"x+y", "x+y", 0}, // non-numeric suffix stays intact
	}
	for _, c := range cases {
		sym, off := splitSymOffset(c.in)
		if sym != c.sym || off != c.off {
			t.Errorf("splitSymOffset(%q) = (%q, %d), want (%q, %d)",
				c.in, sym, off, c.sym, c.off)
		}
	}
}

func TestHiLoSignCompensation(t *testing.T) {
	for _, addr := range []uint32{0, 4, 0x10008000, 0x1000fffc, 0x7fffeffc, 0xdeadbeec} {
		hi, lo := hiLo(addr)
		got := uint32(hi)<<16 + uint32(lo)
		if got != addr {
			t.Errorf("hiLo(%#x): %#x<<16 + %d = %#x", addr, hi, lo, got)
		}
	}
}

func TestLoadImmForms(t *testing.T) {
	cases := []struct {
		v int32
		n int
	}{
		{0, 1}, {1, 1}, {-1, 1}, {32767, 1}, {-32768, 1},
		{40000, 1}, // fits unsigned 16 -> ori
		{65536, 2}, {-40000, 2}, {1 << 30, 2},
	}
	for _, c := range cases {
		if got := loadImm(isa.T0, c.v); len(got) != c.n {
			t.Errorf("loadImm(%d) = %d insts, want %d: %v", c.v, len(got), c.n, got)
		}
	}
}

func TestIsIdent(t *testing.T) {
	for _, ok := range []string{"a", "_x", "f.b", "L9", "cold_fn"} {
		if !isIdent(ok) {
			t.Errorf("isIdent(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "9a", "a b", "a+b", "$t0"} {
		if isIdent(bad) {
			t.Errorf("isIdent(%q) = true", bad)
		}
	}
}
