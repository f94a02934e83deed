package asm

import (
	"slices"
	"strconv"

	"delinq/internal/isa"
	"delinq/internal/obj"
)

// Kind discriminates an Operand.
type Kind uint8

const (
	KReg    Kind = iota + 1 // integer register: $t0
	KFReg                   // FP register: $f4
	KImm                    // integer: 42
	KSym                    // symbol plus offset: name, name+8
	KMem                    // memory reference: 8($sp), name+8($gp)
	KFloat                  // float literal: 1.5
	KString                 // string payload of .ascii/.asciiz
	KType                   // source type of symbol metadata
)

// Operand is one typed operand of a Stmt.
type Operand struct {
	Kind Kind
	Reg  isa.Reg // KReg, KFReg; the base register of KMem
	// Int is a KImm's value, and the offset of a KSym or KMem.
	Int int64
	// Name is a KSym's symbol, a KMem's symbolic offset (empty for a
	// numeric one) and a KString's payload. On a KFloat it is the
	// spelling of a text literal that is not a single-precision float:
	// the statement fails where its value is used, as the literal would.
	Name string
	F    float64   // KFloat, as written
	Type *obj.Type // KType
}

// Reg is an integer register operand.
func Reg(r isa.Reg) Operand { return Operand{Kind: KReg, Reg: r} }

// FReg is an FP register operand.
func FReg(r isa.Reg) Operand { return Operand{Kind: KFReg, Reg: r} }

// Imm is an integer operand.
func Imm(v int64) Operand { return Operand{Kind: KImm, Int: v} }

// Sym is a symbol operand.
func Sym(name string) Operand { return Operand{Kind: KSym, Name: name} }

// Mem is the memory reference off(base).
func Mem(off int64, base isa.Reg) Operand { return Operand{Kind: KMem, Reg: base, Int: off} }

// Float is a float literal. It is rounded to single precision where it
// is used, exactly as the text path rounds its %g spelling.
func Float(f float64) Operand { return Operand{Kind: KFloat, F: f} }

// Str is the payload of .ascii or .asciiz.
func Str(s string) Operand { return Operand{Kind: KString, Name: s} }

// Typ is a source type operand of .object, .local, .param and .struct.
func Typ(t *obj.Type) Operand { return Operand{Kind: KType, Type: t} }

// Directive names an assembler directive.
type Directive uint8

const (
	DText    Directive = iota + 1 // .text
	DData                         // .data
	DWord                         // .word v|sym, ...
	DHalf                         // .half v, ...
	DByte                         // .byte v, ...
	DFloat                        // .float f|v, ...
	DSpace                        // .space n
	DAscii                        // .ascii "s"
	DAsciiz                       // .asciiz "s"
	DAlign                        // .align n
	DGlobl                        // .globl (accepted and ignored)
	DFunc                         // .func name, frame=n
	DEndfunc                      // .endfunc
	DLocal                        // .local name:offset:type
	DParam                        // .param name:offset:type
	DObject                       // .object name, type
	DStruct                       // .struct name, field:offset:type, ...
	DEntry                        // .entry sym
)

var directiveNames = [...]string{
	DText: ".text", DData: ".data", DWord: ".word", DHalf: ".half", DByte: ".byte",
	DFloat: ".float", DSpace: ".space", DAscii: ".ascii", DAsciiz: ".asciiz",
	DAlign: ".align", DGlobl: ".globl", DFunc: ".func", DEndfunc: ".endfunc",
	DLocal: ".local", DParam: ".param", DObject: ".object", DStruct: ".struct",
	DEntry: ".entry",
}

func (d Directive) String() string { return directiveNames[d] }

// Mnemonic names an instruction or pseudo-instruction.
type Mnemonic uint8

const (
	NOP Mnemonic = iota + 1
	SYSCALL
	ADD
	ADDU
	SUB
	SUBU
	AND
	OR
	XOR
	NOR
	SLT
	SLTU
	MUL
	SLLV
	SRLV
	SRAV
	SLL
	SRL
	SRA
	MULT
	DIV
	DIVU
	MFHI
	MFLO
	ADDI
	ADDIU
	SLTI
	SLTIU
	ANDI
	ORI
	XORI
	LUI
	LW
	LH
	LB
	LBU
	LHU
	SW
	SH
	SB
	LWC1
	SWC1
	LS // l.s, an alias of lwc1
	SS // s.s, an alias of swc1
	BEQ
	BNE
	BLEZ
	BGTZ
	BLTZ
	BGEZ
	BEQZ
	BNEZ
	B
	BGE
	BGT
	BLE
	BLT
	BC1T
	BC1F
	J
	JAL
	JR
	JALR
	MOVE
	NEG
	NOT
	LI
	LA
	LIS // li.s
	ADDS
	SUBS
	MULS
	DIVS
	MOVS
	NEGS
	CVTSW
	CVTWS
	CEQS
	CLTS
	CLES
	MFC1
	MTC1
)

// mnemonicInfo is a mnemonic's spelling, the machine operation it
// assembles to (the compare of a compare-and-branch pseudo, the branch
// of beqz/bnez/b) and its operand form: one letter per operand,
//
//	r register      f FP register   i integer
//	t branch target (integer or symbol)
//	a symbol        m memory reference or bare symbol
//	x float literal
type mnemonicInfo struct {
	name string
	op   isa.Op
	form string
}

var mnemonics = [...]mnemonicInfo{
	NOP: {"nop", isa.NOP, ""}, SYSCALL: {"syscall", isa.SYSCALL, ""},
	ADD: {"add", isa.ADD, "rrr"}, ADDU: {"addu", isa.ADDU, "rrr"},
	SUB: {"sub", isa.SUB, "rrr"}, SUBU: {"subu", isa.SUBU, "rrr"},
	AND: {"and", isa.AND, "rrr"}, OR: {"or", isa.OR, "rrr"},
	XOR: {"xor", isa.XOR, "rrr"}, NOR: {"nor", isa.NOR, "rrr"},
	SLT: {"slt", isa.SLT, "rrr"}, SLTU: {"sltu", isa.SLTU, "rrr"},
	MUL:  {"mul", isa.MUL, "rrr"},
	SLLV: {"sllv", isa.SLLV, "rrr"}, SRLV: {"srlv", isa.SRLV, "rrr"}, SRAV: {"srav", isa.SRAV, "rrr"},
	SLL: {"sll", isa.SLL, "rri"}, SRL: {"srl", isa.SRL, "rri"}, SRA: {"sra", isa.SRA, "rri"},
	MULT: {"mult", isa.MULT, "rr"}, DIV: {"div", isa.DIV, "rr"}, DIVU: {"divu", isa.DIVU, "rr"},
	MFHI: {"mfhi", isa.MFHI, "r"}, MFLO: {"mflo", isa.MFLO, "r"},
	ADDI: {"addi", isa.ADDI, "rri"}, ADDIU: {"addiu", isa.ADDIU, "rri"},
	SLTI: {"slti", isa.SLTI, "rri"}, SLTIU: {"sltiu", isa.SLTIU, "rri"},
	ANDI: {"andi", isa.ANDI, "rri"}, ORI: {"ori", isa.ORI, "rri"}, XORI: {"xori", isa.XORI, "rri"},
	LUI: {"lui", isa.LUI, "ri"},
	LW:  {"lw", isa.LW, "rm"}, LH: {"lh", isa.LH, "rm"}, LB: {"lb", isa.LB, "rm"},
	LBU: {"lbu", isa.LBU, "rm"}, LHU: {"lhu", isa.LHU, "rm"},
	SW: {"sw", isa.SW, "rm"}, SH: {"sh", isa.SH, "rm"}, SB: {"sb", isa.SB, "rm"},
	LWC1: {"lwc1", isa.LWC1, "fm"}, SWC1: {"swc1", isa.SWC1, "fm"},
	LS: {"l.s", isa.LWC1, "fm"}, SS: {"s.s", isa.SWC1, "fm"},
	BEQ: {"beq", isa.BEQ, "rrt"}, BNE: {"bne", isa.BNE, "rrt"},
	BLEZ: {"blez", isa.BLEZ, "rt"}, BGTZ: {"bgtz", isa.BGTZ, "rt"},
	BLTZ: {"bltz", isa.BLTZ, "rt"}, BGEZ: {"bgez", isa.BGEZ, "rt"},
	BEQZ: {"beqz", isa.BEQ, "rt"}, BNEZ: {"bnez", isa.BNE, "rt"},
	B:   {"b", isa.BEQ, "t"},
	BGE: {"bge", isa.SLT, "rrt"}, BGT: {"bgt", isa.SLT, "rrt"},
	BLE: {"ble", isa.SLT, "rrt"}, BLT: {"blt", isa.SLT, "rrt"},
	BC1T: {"bc1t", isa.BC1T, "t"}, BC1F: {"bc1f", isa.BC1F, "t"},
	J: {"j", isa.J, "t"}, JAL: {"jal", isa.JAL, "t"},
	JR: {"jr", isa.JR, "r"}, JALR: {"jalr", isa.JALR, "rr"},
	MOVE: {"move", isa.ADDU, "rr"}, NEG: {"neg", isa.SUB, "rr"}, NOT: {"not", isa.NOR, "rr"},
	LI: {"li", isa.ADDIU, "ri"}, LA: {"la", isa.ADDIU, "ra"}, LIS: {"li.s", isa.MTC1, "fx"},
	ADDS: {"add.s", isa.ADDS, "fff"}, SUBS: {"sub.s", isa.SUBS, "fff"},
	MULS: {"mul.s", isa.MULS, "fff"}, DIVS: {"div.s", isa.DIVS, "fff"},
	MOVS: {"mov.s", isa.MOVS, "ff"}, NEGS: {"neg.s", isa.NEGS, "ff"},
	CVTSW: {"cvt.s.w", isa.CVTSW, "ff"}, CVTWS: {"cvt.w.s", isa.CVTWS, "ff"},
	CEQS: {"c.eq.s", isa.CEQS, "ff"}, CLTS: {"c.lt.s", isa.CLTS, "ff"}, CLES: {"c.le.s", isa.CLES, "ff"},
	MFC1: {"mfc1", isa.MFC1, "rf"}, MTC1: {"mtc1", isa.MTC1, "rf"},
}

func (m Mnemonic) String() string { return mnemonics[m].name }

// slotAccepts reports whether an operand of kind k may fill a slot of
// the given form letter.
func slotAccepts(letter byte, k Kind) bool {
	switch letter {
	case 'r':
		return k == KReg
	case 'f':
		return k == KFReg
	case 'i':
		return k == KImm
	case 't':
		return k == KImm || k == KSym
	case 'a':
		return k == KSym
	case 'm':
		return k == KMem || k == KSym
	case 'x':
		return k == KFloat
	}
	return false
}

// Stmt is one assembler statement: a source line holding a label, a
// directive or an instruction, or a label followed by one of the other
// two. Line is its line in the text rendering, for diagnostics.
type Stmt struct {
	Line  int
	Label string
	Dir   Directive
	Op    Mnemonic
	Args  []Operand
}

// Program is an assembly program as typed statements. The mini-C code
// generator appends to one directly; Assemble parses text into one.
// Both assemble through AssembleProgram, and Text renders one in the
// syntax Assemble reads.
type Program struct {
	Stmts []Stmt
	ops   []Operand // the current chunk backing the Stmts' Args
}

// opsChunk is how many operands one allocation of Program.ops holds.
const opsChunk = 512

// add appends a statement of the given source line. Operands are
// copied into chunks that are never reallocated, so earlier statements
// keep their Args; the statement slice grows by doubling.
func (p *Program) add(line int, label string, d Directive, m Mnemonic, args []Operand) {
	s := Stmt{Line: line, Label: label, Dir: d, Op: m}
	if len(args) > 0 {
		if cap(p.ops)-len(p.ops) < len(args) {
			p.ops = make([]Operand, 0, max(opsChunk, len(args)))
		}
		start := len(p.ops)
		p.ops = append(p.ops, args...)
		s.Args = p.ops[start:len(p.ops):len(p.ops)]
	}
	if len(p.Stmts) == cap(p.Stmts) {
		p.Stmts = slices.Grow(p.Stmts, max(len(p.Stmts), 256))
	}
	p.Stmts = append(p.Stmts, s)
}

// The builder methods put each statement on the next line of the
// rendering, which is the line their diagnostics name.

// Label appends a line defining label.
func (p *Program) Label(name string) { p.add(len(p.Stmts)+1, name, 0, 0, nil) }

// Inst appends an instruction line.
func (p *Program) Inst(m Mnemonic, args ...Operand) { p.add(len(p.Stmts)+1, "", 0, m, args) }

// Dir appends a directive line.
func (p *Program) Dir(d Directive, args ...Operand) { p.add(len(p.Stmts)+1, "", d, 0, args) }

// LabelDir appends a line defining label on a directive: a datum.
func (p *Program) LabelDir(label string, d Directive, args ...Operand) {
	p.add(len(p.Stmts)+1, label, d, 0, args)
}

// check reports a statement whose operands do not fit its mnemonic's
// form or its directive. AssembleProgram checks every statement first,
// and every later pass relies on it.
func (s *Stmt) check() error {
	if int(s.Op) >= len(mnemonics) || int(s.Dir) >= len(directiveNames) || s.Op != 0 && s.Dir != 0 {
		return errf(s.Line, "malformed statement")
	}
	if s.Op != 0 {
		form := mnemonics[s.Op].form
		if s.Op == JALR && len(s.Args) == 1 {
			form = "r"
		}
		if len(s.Args) != len(form) {
			return arityError(s.Line, s.Op, len(s.Args))
		}
		for i, o := range s.Args {
			if !slotAccepts(form[i], o.Kind) {
				return errf(s.Line, "operand %d of %s has the wrong kind", i+1, s.Op)
			}
		}
		return nil
	}
	want := func(kinds ...Kind) bool {
		if len(s.Args) != len(kinds) {
			return false
		}
		for i, k := range kinds {
			if s.Args[i].Kind != k {
				return false
			}
		}
		return true
	}
	ok := true
	switch s.Dir {
	case DWord:
		for _, o := range s.Args {
			ok = ok && (o.Kind == KImm || o.Kind == KSym)
		}
	case DHalf, DByte, DSpace, DAlign:
		for _, o := range s.Args {
			ok = ok && o.Kind == KImm
		}
	case DFloat:
		for _, o := range s.Args {
			ok = ok && (o.Kind == KFloat || o.Kind == KImm)
		}
	case DAscii, DAsciiz:
		ok = want(KString)
	case DFunc:
		ok = want(KSym, KImm)
	case DLocal, DParam:
		ok = want(KSym, KImm, KType)
	case DObject:
		ok = want(KSym, KType)
	case DStruct:
		ok = want(KType) && s.Args[0].Type != nil && s.Args[0].Type.Kind == obj.KindStruct
	case DEntry:
		ok = want(KSym)
	case DText, DData, DGlobl, DEndfunc, 0:
		ok = len(s.Args) == 0
	default:
		ok = false
	}
	if !ok {
		return errf(s.Line, "malformed %s directive", s.Dir)
	}
	return nil
}

// arityError reports an instruction with the wrong operand count.
func arityError(line int, m Mnemonic, n int) error {
	if m == JALR {
		return errf(line, "jalr wants 1 or 2 operands")
	}
	return errf(line, "%s wants %d operands, got %d", m, len(mnemonics[m].form), n)
}

// Text renders the program as assembly source that Assemble reads
// back into the same program: one statement per line, a label first,
// then a tab and the directive or instruction.
func (p *Program) Text() string {
	var b []byte
	for i := range p.Stmts {
		s := &p.Stmts[i]
		if s.Label != "" {
			b = append(b, s.Label...)
			b = append(b, ':')
		}
		switch {
		case s.Dir != 0:
			b = append(b, '\t')
			b = append(b, s.Dir.String()...)
			b = appendDirArgs(b, s)
		case s.Op != 0:
			b = append(b, '\t')
			b = append(b, s.Op.String()...)
			for j, o := range s.Args {
				if j == 0 {
					b = append(b, ' ')
				} else {
					b = append(b, ", "...)
				}
				b = appendOperand(b, o)
			}
		}
		b = append(b, '\n')
	}
	return string(b)
}

// appendDirArgs renders a directive's operands, including the symbol
// metadata notations.
func appendDirArgs(b []byte, s *Stmt) []byte {
	if len(s.Args) == 0 {
		return b
	}
	b = append(b, ' ')
	switch s.Dir {
	case DFunc: // name, frame=n
		b = append(b, s.Args[0].Name...)
		b = append(b, ", frame="...)
		return strconv.AppendInt(b, s.Args[1].Int, 10)
	case DLocal, DParam: // name:offset:type
		b = append(b, s.Args[0].Name...)
		b = append(b, ':')
		b = strconv.AppendInt(b, s.Args[1].Int, 10)
		b = append(b, ':')
		return append(b, s.Args[2].Type.String()...)
	case DStruct: // name, field:offset:type, ...
		st := s.Args[0].Type
		b = append(b, st.Name...)
		for _, f := range st.Fields {
			b = append(b, ", "...)
			b = append(b, f.Name...)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(f.Offset), 10)
			b = append(b, ':')
			b = append(b, f.Type.String()...)
		}
		return b
	}
	for j, o := range s.Args {
		if j > 0 {
			b = append(b, ", "...)
		}
		b = appendOperand(b, o)
	}
	return b
}

func appendOperand(b []byte, o Operand) []byte {
	switch o.Kind {
	case KReg:
		return append(b, isa.RegName(o.Reg)...)
	case KFReg:
		return append(b, isa.FRegName(o.Reg)...)
	case KImm:
		return strconv.AppendInt(b, o.Int, 10)
	case KSym:
		return appendSym(b, o.Name, o.Int)
	case KMem:
		if o.Name != "" {
			b = appendSym(b, o.Name, o.Int)
		} else {
			b = strconv.AppendInt(b, o.Int, 10)
		}
		b = append(b, '(')
		b = append(b, isa.RegName(o.Reg)...)
		return append(b, ')')
	case KFloat:
		if o.Name != "" {
			return append(b, o.Name...)
		}
		return strconv.AppendFloat(b, o.F, 'g', -1, 64)
	case KString:
		return strconv.AppendQuote(b, o.Name)
	case KType:
		return append(b, o.Type.String()...)
	}
	return b
}

func appendSym(b []byte, name string, off int64) []byte {
	b = append(b, name...)
	if off > 0 {
		b = append(b, '+')
	}
	if off != 0 {
		b = strconv.AppendInt(b, off, 10)
	}
	return b
}

// symText spells a symbol plus offset for diagnostics.
func symText(name string, off int64) string { return string(appendSym(nil, name, off)) }

// floatText spells a float operand for diagnostics, as Text renders it.
func floatText(o Operand) string { return string(appendOperand(nil, o)) }
