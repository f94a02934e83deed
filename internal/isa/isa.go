// Package isa defines the MIPS-like 32-bit instruction set used throughout
// the repository: register names, opcodes, a decoded instruction
// representation, and binary encoding/decoding of the R/I/J/COP1 formats.
//
// The ISA is a close subset of MIPS I plus the MIPS32 mul instruction and
// single-precision COP1 arithmetic. Unlike real MIPS there are no branch
// delay slots: a taken branch transfers control directly to its target.
package isa

import "fmt"

// Reg is an integer or floating-point register number (0-31). Whether a
// Reg names the integer or the FP file depends on the instruction field it
// appears in; see the comments on Inst.
type Reg uint8

// Integer register conventions (MIPS o32).
const (
	Zero Reg = 0 // hardwired zero
	AT   Reg = 1 // assembler temporary
	V0   Reg = 2 // return value 0
	V1   Reg = 3 // return value 1
	A0   Reg = 4 // argument 0
	A1   Reg = 5 // argument 1
	A2   Reg = 6 // argument 2
	A3   Reg = 7 // argument 3
	T0   Reg = 8 // caller-saved temporaries T0-T7
	T1   Reg = 9
	T2   Reg = 10
	T3   Reg = 11
	T4   Reg = 12
	T5   Reg = 13
	T6   Reg = 14
	T7   Reg = 15
	S0   Reg = 16 // callee-saved S0-S7
	S1   Reg = 17
	S2   Reg = 18
	S3   Reg = 19
	S4   Reg = 20
	S5   Reg = 21
	S6   Reg = 22
	S7   Reg = 23
	T8   Reg = 24
	T9   Reg = 25
	K0   Reg = 26 // kernel reserved
	K1   Reg = 27
	GP   Reg = 28 // global pointer: base of the small-data area
	SP   Reg = 29 // stack pointer
	FP   Reg = 30 // frame pointer
	RA   Reg = 31 // return address
)

var intRegNames = [32]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// RegName returns the canonical assembly name ("$sp", "$t0") of an integer
// register.
func RegName(r Reg) string {
	if int(r) < len(intRegNames) {
		return "$" + intRegNames[r]
	}
	return fmt.Sprintf("$r%d", r)
}

// FRegName returns the assembly name ("$f12") of a floating-point register.
func FRegName(r Reg) string { return fmt.Sprintf("$f%d", r) }

// RegByName maps an assembly register name (without the '$') to its
// number. It accepts both symbolic ("sp") and numeric ("29") names.
func RegByName(name string) (Reg, bool) {
	for i, n := range intRegNames {
		if n == name {
			return Reg(i), true
		}
	}
	var n int
	if _, err := fmt.Sscanf(name, "%d", &n); err == nil && n >= 0 && n < 32 {
		return Reg(n), true
	}
	return 0, false
}

// Op identifies an operation of the ISA.
type Op uint8

// Operations. The zero value is NOP.
const (
	NOP Op = iota

	// R-type integer arithmetic and logic.
	SLL  // rd = rt << shamt
	SRL  // rd = rt >> shamt (logical)
	SRA  // rd = rt >> shamt (arithmetic)
	SLLV // rd = rt << rs
	SRLV // rd = rt >> rs (logical)
	SRAV // rd = rt >> rs (arithmetic)
	ADD  // rd = rs + rt (no trap on overflow in this ISA)
	ADDU // rd = rs + rt
	SUB  // rd = rs - rt
	SUBU // rd = rs - rt
	AND  // rd = rs & rt
	OR   // rd = rs | rt
	XOR  // rd = rs ^ rt
	NOR  // rd = ^(rs | rt)
	SLT  // rd = (rs < rt) signed
	SLTU // rd = (rs < rt) unsigned
	MUL  // rd = rs * rt (MIPS32 SPECIAL2)
	MULT // hi:lo = rs * rt signed
	DIV  // lo = rs / rt, hi = rs % rt (signed)
	DIVU // lo, hi unsigned
	MFHI // rd = hi
	MFLO // rd = lo

	// Control transfer.
	JR      // pc = rs
	JALR    // rd = pc+4; pc = rs
	J       // pc = target
	JAL     // ra = pc+4; pc = target
	BEQ     // if rs == rt branch
	BNE     // if rs != rt branch
	BLEZ    // if rs <= 0 branch
	BGTZ    // if rs > 0 branch
	BLTZ    // if rs < 0 branch
	BGEZ    // if rs >= 0 branch
	SYSCALL // system call; service number in $v0

	// I-type arithmetic and logic.
	ADDI  // rt = rs + imm
	ADDIU // rt = rs + imm
	SLTI  // rt = (rs < imm) signed
	SLTIU // rt = (rs < imm) unsigned
	ANDI  // rt = rs & uimm
	ORI   // rt = rs | uimm
	XORI  // rt = rs ^ uimm
	LUI   // rt = imm << 16

	// Memory access. rt is the data register, rs the base.
	LB  // load byte, sign-extend
	LH  // load half, sign-extend
	LW  // load word
	LBU // load byte, zero-extend
	LHU // load half, zero-extend
	SB  // store byte
	SH  // store half
	SW  // store word

	// COP1 single-precision floating point. Rd/Rs/Rt name FP registers
	// except where noted.
	LWC1  // load word to FP reg; Rt = FP dest, Rs = integer base
	SWC1  // store word from FP reg
	MFC1  // Rt(int) = Rd(fp)
	MTC1  // Rd(fp) = Rt(int)
	ADDS  // fd = fs + ft
	SUBS  // fd = fs - ft
	MULS  // fd = fs * ft
	DIVS  // fd = fs / ft
	MOVS  // fd = fs
	NEGS  // fd = -fs
	CVTSW // fd = float32(int32 bits of fs)
	CVTWS // fd = int32(float32 of fs), truncating
	CEQS  // cc = (fs == ft)
	CLTS  // cc = (fs < ft)
	CLES  // cc = (fs <= ft)
	BC1T  // branch if cc set
	BC1F  // branch if cc clear

	// ARM-like backend operations. The ARM backend is two-operand: the
	// destination of a binary ALU op is also its left operand, compares
	// go through an explicit compare state rather than result registers,
	// and word loads/stores come in pre/post-indexed forms that write
	// the updated address back to the base register. Shared indices:
	// Rd is the destination (and left source) of ALU ops, Rt the right
	// source; memory ops keep the MIPS field convention (Rt data,
	// Rs base, Imm offset).

	AMOV  // rd = rs
	AMVN  // rd = ^rs
	AADD  // rd = rd + rt
	ASUB  // rd = rd - rt
	ARSB  // rd = rt - rd (reverse subtract)
	AMUL  // rd = rd * rt
	AAND  // rd = rd & rt
	AORR  // rd = rd | rt
	AEOR  // rd = rd ^ rt
	ALSL  // rd = rd << (rt & 31)
	ALSR  // rd = rd >> (rt & 31) (logical)
	AASR  // rd = rd >> (rt & 31) (arithmetic)
	AADDI // rd = rd + imm (sign-extended)
	AANDI // rd = rd & uimm16
	AORRI // rd = rd | uimm16
	AEORI // rd = rd ^ uimm16
	ALSLI // rd = rd << imm
	ALSRI // rd = rd >> imm (logical)
	AASRI // rd = rd >> imm (arithmetic)
	AMOVI // rd = imm (sign-extended)
	AMOVW // rd = uimm16 (zero-extended)
	AMOVT // rd = imm<<16 | rd&0xffff
	ACMP  // compare state = (rs, rt)
	ACMPI // compare state = (rs, imm)

	ASETLT // rd = 1 if last compare was signed-less, else 0
	ASETLO // rd = 1 if last compare was unsigned-less, else 0

	ABEQ // branch if last compare was equal
	ABNE // branch if last compare was not equal
	ABLT // branch if signed-less
	ABGE // branch if signed-greater-or-equal
	ABGT // branch if signed-greater
	ABLE // branch if signed-less-or-equal
	AB   // pc-relative unconditional branch
	ABL  // call: lr = pc+4, pc-relative branch
	ABX  // pc = rs (return when rs is lr)
	ABLX // rd = pc+4; pc = rs (indirect call)
	ASVC // system call; service number in r2

	// ARM memory access. Rt is the data register, Rs the base.
	ALDR     // load word
	ALDRH    // load half, zero-extend
	ALDRSH   // load half, sign-extend
	ALDRB    // load byte, zero-extend
	ALDRSB   // load byte, sign-extend
	ASTR     // store word
	ASTRH    // store half
	ASTRB    // store byte
	ALDRPRE  // rs += imm; rt = mem32[rs] (pre-indexed, writeback)
	ALDRPOST // rt = mem32[rs]; rs += imm (post-indexed, writeback)
	ASTRPRE  // rs += imm; mem32[rs] = rt
	ASTRPOST // mem32[rs] = rt; rs += imm
	AVLDR    // load word to FP reg; Rt = FP dest, Rs = integer base
	AVSTR    // store word from FP reg

	numOps // sentinel
)

var opNames = [numOps]string{
	NOP: "nop",
	SLL: "sll", SRL: "srl", SRA: "sra", SLLV: "sllv", SRLV: "srlv", SRAV: "srav",
	ADD: "add", ADDU: "addu", SUB: "sub", SUBU: "subu",
	AND: "and", OR: "or", XOR: "xor", NOR: "nor", SLT: "slt", SLTU: "sltu",
	MUL: "mul", MULT: "mult", DIV: "div", DIVU: "divu", MFHI: "mfhi", MFLO: "mflo",
	JR: "jr", JALR: "jalr", J: "j", JAL: "jal",
	BEQ: "beq", BNE: "bne", BLEZ: "blez", BGTZ: "bgtz", BLTZ: "bltz", BGEZ: "bgez",
	SYSCALL: "syscall",
	ADDI:    "addi", ADDIU: "addiu", SLTI: "slti", SLTIU: "sltiu",
	ANDI: "andi", ORI: "ori", XORI: "xori", LUI: "lui",
	LB: "lb", LH: "lh", LW: "lw", LBU: "lbu", LHU: "lhu", SB: "sb", SH: "sh", SW: "sw",
	LWC1: "lwc1", SWC1: "swc1", MFC1: "mfc1", MTC1: "mtc1",
	ADDS: "add.s", SUBS: "sub.s", MULS: "mul.s", DIVS: "div.s",
	MOVS: "mov.s", NEGS: "neg.s", CVTSW: "cvt.s.w", CVTWS: "cvt.w.s",
	CEQS: "c.eq.s", CLTS: "c.lt.s", CLES: "c.le.s", BC1T: "bc1t", BC1F: "bc1f",

	// ARM ops are namespaced "arm." in the mnemonic table, so Name tells
	// an ARM op from a MIPS op of the same spelling (add, sub, mul, beq,
	// ...) in diagnostics and test names. String() strips the prefix
	// when rendering.
	AMOV: "arm.mov", AMVN: "arm.mvn",
	AADD: "arm.add", ASUB: "arm.sub", ARSB: "arm.rsb", AMUL: "arm.mul",
	AAND: "arm.and", AORR: "arm.orr", AEOR: "arm.eor",
	ALSL: "arm.lsl", ALSR: "arm.lsr", AASR: "arm.asr",
	AADDI: "arm.addi", AANDI: "arm.andi", AORRI: "arm.orri", AEORI: "arm.eori",
	ALSLI: "arm.lsli", ALSRI: "arm.lsri", AASRI: "arm.asri",
	AMOVI: "arm.movi", AMOVW: "arm.movw", AMOVT: "arm.movt",
	ACMP: "arm.cmp", ACMPI: "arm.cmpi", ASETLT: "arm.setlt", ASETLO: "arm.setlo",
	ABEQ: "arm.beq", ABNE: "arm.bne", ABLT: "arm.blt", ABGE: "arm.bge",
	ABGT: "arm.bgt", ABLE: "arm.ble",
	AB: "arm.b", ABL: "arm.bl", ABX: "arm.bx", ABLX: "arm.blx", ASVC: "arm.svc",
	ALDR: "arm.ldr", ALDRH: "arm.ldrh", ALDRSH: "arm.ldrsh",
	ALDRB: "arm.ldrb", ALDRSB: "arm.ldrsb",
	ASTR: "arm.str", ASTRH: "arm.strh", ASTRB: "arm.strb",
	ALDRPRE: "arm.ldr.pre", ALDRPOST: "arm.ldr.post",
	ASTRPRE: "arm.str.pre", ASTRPOST: "arm.str.post",
	AVLDR: "arm.vldr", AVSTR: "arm.vstr",
}

// armRegNames spells the ARM backend's integer registers: plain rN for
// the allocatable file, with role names for the hardwired zero, the
// scratch/intra-procedure register, and the stack/frame/link trio.
var armRegNames = [32]string{
	"zr", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
	"r16", "r17", "r18", "r19", "r20", "r21", "r22", "r23",
	"r24", "r25", "r26", "r27", "ip", "sp", "fp", "lr",
}

// ARMRegName returns the ARM backend's spelling of an integer register.
func ARMRegName(r Reg) string {
	if int(r) < len(armRegNames) {
		return armRegNames[r]
	}
	return fmt.Sprintf("r%d", r)
}

// ARMFRegName returns the ARM backend's spelling of an FP register.
func ARMFRegName(r Reg) string { return fmt.Sprintf("s%d", r) }

// Name returns the assembly mnemonic of op.
func (op Op) Name() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", op)
}

// Inst is one decoded instruction.
//
// Field usage by format:
//
//   - Three-register ALU ops: Rd = Rs op Rt.
//   - Shifts by immediate (SLL/SRL/SRA): Rd = Rt shift Imm.
//   - I-type ALU ops: Rt = Rs op Imm.
//   - Loads/stores: Rt is the data register (FP register for LWC1/SWC1),
//     Rs the integer base, Imm the byte offset.
//   - Branches: Imm is the signed word offset from the instruction after
//     the branch (see Inst.BranchTarget).
//   - J/JAL: Imm holds target>>2 (the 26-bit instruction index).
//   - COP1 arithmetic: Rd=fd, Rs=fs, Rt=ft, all FP registers.
//   - MFC1/MTC1: Rt is the integer register, Rd the FP register.
type Inst struct {
	Op         Op
	Rd, Rs, Rt Reg
	Imm        int32
}

// IsLoad reports whether the instruction reads data memory.
func (i Inst) IsLoad() bool {
	switch i.Op {
	case LB, LH, LW, LBU, LHU, LWC1,
		ALDR, ALDRH, ALDRSH, ALDRB, ALDRSB, ALDRPRE, ALDRPOST, AVLDR:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes data memory.
func (i Inst) IsStore() bool {
	switch i.Op {
	case SB, SH, SW, SWC1, ASTR, ASTRH, ASTRB, ASTRPRE, ASTRPOST, AVSTR:
		return true
	}
	return false
}

// IsFPMem reports whether a load or store moves an FP register
// (the data register names the FP file, not the integer file).
func (i Inst) IsFPMem() bool {
	switch i.Op {
	case LWC1, SWC1, AVLDR, AVSTR:
		return true
	}
	return false
}

// MemOffset returns the offset the effective address of a load or
// store adds to its base register: Imm for offset and pre-indexed
// addressing, 0 for post-indexed (the base is used unmodified and the
// increment happens after the access).
func (i Inst) MemOffset() int32 {
	switch i.Op {
	case ALDRPOST, ASTRPOST:
		return 0
	}
	return i.Imm
}

// WritesBack reports whether a load or store writes the updated
// effective address back to its base register.
func (i Inst) WritesBack() bool {
	switch i.Op {
	case ALDRPRE, ALDRPOST, ASTRPRE, ASTRPOST:
		return true
	}
	return false
}

// IsBranch reports whether the instruction is a conditional branch.
func (i Inst) IsBranch() bool {
	switch i.Op {
	case BEQ, BNE, BLEZ, BGTZ, BLTZ, BGEZ, BC1T, BC1F,
		ABEQ, ABNE, ABLT, ABGE, ABGT, ABLE:
		return true
	}
	return false
}

// IsJump reports whether the instruction is an unconditional control
// transfer (J, JR, JAL, JALR and the ARM B/BL/BX/BLX family).
func (i Inst) IsJump() bool {
	switch i.Op {
	case J, JR, JAL, JALR, AB, ABL, ABX, ABLX:
		return true
	}
	return false
}

// IsCall reports whether the instruction is a function call.
func (i Inst) IsCall() bool {
	switch i.Op {
	case JAL, JALR, ABL, ABLX:
		return true
	}
	return false
}

// IsReturn reports whether the instruction is the conventional function
// return (jr $ra on MIPS, bx lr on ARM; both use register 31).
func (i Inst) IsReturn() bool { return (i.Op == JR || i.Op == ABX) && i.Rs == RA }

// IsSyscall reports whether the instruction traps to a system service.
func (i Inst) IsSyscall() bool { return i.Op == SYSCALL || i.Op == ASVC }

// EndsBlock reports whether the instruction terminates a basic block.
func (i Inst) EndsBlock() bool { return i.IsBranch() || i.IsJump() || i.IsSyscall() }

// BranchTarget returns the target address of a branch at address pc.
func (i Inst) BranchTarget(pc uint32) uint32 {
	return pc + 4 + uint32(i.Imm)<<2
}

// JumpTarget returns the absolute target of a J or JAL at address pc.
func (i Inst) JumpTarget(pc uint32) uint32 {
	return (pc+4)&0xF0000000 | uint32(i.Imm)<<2
}

// DirectJumpTarget returns the statically-known target of a direct
// unconditional transfer at address pc: J/JAL use the absolute 26-bit
// index encoding, AB/ABL the pc-relative branch encoding. The second
// result is false for indirect jumps and non-jumps.
func (i Inst) DirectJumpTarget(pc uint32) (uint32, bool) {
	switch i.Op {
	case J, JAL:
		return i.JumpTarget(pc), true
	case AB, ABL:
		return i.BranchTarget(pc), true
	}
	return 0, false
}

// regs backs Defs' one-register answers, so they allocate nothing.
var regs = [32]Reg{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
	16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31}

// Defs returns the integer registers written by the instruction; the
// caller must not modify the slice. FP register definitions are not
// tracked: address computation, the only consumer of def-use
// information, is integer-only.
func (i Inst) Defs() []Reg {
	var r Reg
	switch i.Op {
	case SLL, SRL, SRA, SLLV, SRLV, SRAV, ADD, ADDU, SUB, SUBU,
		AND, OR, XOR, NOR, SLT, SLTU, MUL, MFHI, MFLO, JALR,
		AMOV, AMVN, AADD, ASUB, ARSB, AMUL, AAND, AORR, AEOR,
		ALSL, ALSR, AASR, AADDI, AANDI, AORRI, AEORI, ALSLI, ALSRI, AASRI,
		AMOVI, AMOVW, AMOVT, ASETLT, ASETLO, ABLX:
		r = i.Rd
	case ADDI, ADDIU, SLTI, SLTIU, ANDI, ORI, XORI, LUI,
		LB, LH, LW, LBU, LHU, MFC1,
		ALDR, ALDRH, ALDRSH, ALDRB, ALDRSB:
		r = i.Rt
	case JAL, ABL:
		r = RA
	case ASTRPRE, ASTRPOST:
		r = i.Rs
	case ALDRPRE, ALDRPOST:
		return []Reg{i.Rt, i.Rs}
	default:
		return nil
	}
	return regs[r : r+1 : r+1]
}

// Uses returns the integer registers read by the instruction.
func (i Inst) Uses() []Reg {
	switch i.Op {
	case SLL, SRL, SRA:
		return []Reg{i.Rt}
	case SLLV, SRLV, SRAV, ADD, ADDU, SUB, SUBU, AND, OR, XOR, NOR,
		SLT, SLTU, MUL, MULT, DIV, DIVU:
		return []Reg{i.Rs, i.Rt}
	case ADDI, ADDIU, SLTI, SLTIU, ANDI, ORI, XORI:
		return []Reg{i.Rs}
	case LB, LH, LW, LBU, LHU, LWC1:
		return []Reg{i.Rs}
	case SB, SH, SW:
		return []Reg{i.Rs, i.Rt}
	case SWC1:
		return []Reg{i.Rs}
	case BEQ, BNE:
		return []Reg{i.Rs, i.Rt}
	case BLEZ, BGTZ, BLTZ, BGEZ:
		return []Reg{i.Rs}
	case JR, JALR:
		return []Reg{i.Rs}
	case MTC1:
		return []Reg{i.Rt}
	case AMOV, AMVN:
		return []Reg{i.Rs}
	case AADD, ASUB, ARSB, AMUL, AAND, AORR, AEOR, ALSL, ALSR, AASR:
		return []Reg{i.Rd, i.Rt}
	case AADDI, AANDI, AORRI, AEORI, ALSLI, ALSRI, AASRI, AMOVT:
		return []Reg{i.Rd}
	case ACMP:
		return []Reg{i.Rs, i.Rt}
	case ACMPI:
		return []Reg{i.Rs}
	case ALDR, ALDRH, ALDRSH, ALDRB, ALDRSB, ALDRPRE, ALDRPOST, AVLDR:
		return []Reg{i.Rs}
	case ASTR, ASTRH, ASTRB, ASTRPRE, ASTRPOST:
		return []Reg{i.Rs, i.Rt}
	case AVSTR:
		return []Reg{i.Rs}
	case ABX, ABLX:
		return []Reg{i.Rs}
	}
	return nil
}

// String renders the instruction in assembly syntax. Branch and jump
// targets are rendered as raw offsets/indices; use Disasm for
// address-aware rendering.
func (i Inst) String() string {
	switch i.Op {
	case NOP, SYSCALL:
		return i.Op.Name()
	case SLL, SRL, SRA:
		return fmt.Sprintf("%s %s, %s, %d", i.Op.Name(), RegName(i.Rd), RegName(i.Rt), i.Imm)
	case SLLV, SRLV, SRAV:
		return fmt.Sprintf("%s %s, %s, %s", i.Op.Name(), RegName(i.Rd), RegName(i.Rt), RegName(i.Rs))
	case ADD, ADDU, SUB, SUBU, AND, OR, XOR, NOR, SLT, SLTU, MUL:
		return fmt.Sprintf("%s %s, %s, %s", i.Op.Name(), RegName(i.Rd), RegName(i.Rs), RegName(i.Rt))
	case MULT, DIV, DIVU:
		return fmt.Sprintf("%s %s, %s", i.Op.Name(), RegName(i.Rs), RegName(i.Rt))
	case MFHI, MFLO:
		return fmt.Sprintf("%s %s", i.Op.Name(), RegName(i.Rd))
	case JR:
		return fmt.Sprintf("jr %s", RegName(i.Rs))
	case JALR:
		return fmt.Sprintf("jalr %s, %s", RegName(i.Rd), RegName(i.Rs))
	case J, JAL:
		return fmt.Sprintf("%s 0x%x", i.Op.Name(), uint32(i.Imm)<<2)
	case BEQ, BNE:
		return fmt.Sprintf("%s %s, %s, %d", i.Op.Name(), RegName(i.Rs), RegName(i.Rt), i.Imm)
	case BLEZ, BGTZ, BLTZ, BGEZ:
		return fmt.Sprintf("%s %s, %d", i.Op.Name(), RegName(i.Rs), i.Imm)
	case BC1T, BC1F:
		return fmt.Sprintf("%s %d", i.Op.Name(), i.Imm)
	case ADDI, ADDIU, SLTI, SLTIU, ANDI, ORI, XORI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op.Name(), RegName(i.Rt), RegName(i.Rs), i.Imm)
	case LUI:
		return fmt.Sprintf("lui %s, %d", RegName(i.Rt), i.Imm)
	case LB, LH, LW, LBU, LHU, SB, SH, SW:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op.Name(), RegName(i.Rt), i.Imm, RegName(i.Rs))
	case LWC1, SWC1:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op.Name(), FRegName(i.Rt), i.Imm, RegName(i.Rs))
	case MFC1, MTC1:
		return fmt.Sprintf("%s %s, %s", i.Op.Name(), RegName(i.Rt), FRegName(i.Rd))
	case ADDS, SUBS, MULS, DIVS:
		return fmt.Sprintf("%s %s, %s, %s", i.Op.Name(), FRegName(i.Rd), FRegName(i.Rs), FRegName(i.Rt))
	case MOVS, NEGS, CVTSW, CVTWS:
		return fmt.Sprintf("%s %s, %s", i.Op.Name(), FRegName(i.Rd), FRegName(i.Rs))
	case CEQS, CLTS, CLES:
		return fmt.Sprintf("%s %s, %s", i.Op.Name(), FRegName(i.Rs), FRegName(i.Rt))
	case AMOV, AMVN:
		return fmt.Sprintf("%s %s, %s", armMnemonic(i.Op), ARMRegName(i.Rd), ARMRegName(i.Rs))
	case AADD, ASUB, ARSB, AMUL, AAND, AORR, AEOR, ALSL, ALSR, AASR:
		return fmt.Sprintf("%s %s, %s", armMnemonic(i.Op), ARMRegName(i.Rd), ARMRegName(i.Rt))
	case AADDI, AANDI, AORRI, AEORI, ALSLI, ALSRI, AASRI:
		// Immediate forms render under the base mnemonic, ARM-style.
		return fmt.Sprintf("%s %s, #%d", armMnemonic(i.Op)[:3], ARMRegName(i.Rd), i.Imm)
	case AMOVI, AMOVW, AMOVT:
		return fmt.Sprintf("%s %s, #%d", armMnemonic(i.Op), ARMRegName(i.Rd), i.Imm)
	case ACMP:
		return fmt.Sprintf("cmp %s, %s", ARMRegName(i.Rs), ARMRegName(i.Rt))
	case ACMPI:
		return fmt.Sprintf("cmp %s, #%d", ARMRegName(i.Rs), i.Imm)
	case ASETLT, ASETLO:
		return fmt.Sprintf("%s %s", armMnemonic(i.Op), ARMRegName(i.Rd))
	case ABEQ, ABNE, ABLT, ABGE, ABGT, ABLE, AB:
		return fmt.Sprintf("%s %d", armMnemonic(i.Op), i.Imm)
	case ABL:
		return fmt.Sprintf("bl %d", i.Imm)
	case ABX:
		return fmt.Sprintf("bx %s", ARMRegName(i.Rs))
	case ABLX:
		return fmt.Sprintf("blx %s, %s", ARMRegName(i.Rd), ARMRegName(i.Rs))
	case ASVC:
		return "svc"
	case ALDR, ALDRH, ALDRSH, ALDRB, ALDRSB, ASTR, ASTRH, ASTRB:
		return fmt.Sprintf("%s %s, [%s, #%d]", armMnemonic(i.Op), ARMRegName(i.Rt), ARMRegName(i.Rs), i.Imm)
	case ALDRPRE, ASTRPRE:
		return fmt.Sprintf("%s %s, [%s, #%d]!", armMnemonic(i.Op)[:3], ARMRegName(i.Rt), ARMRegName(i.Rs), i.Imm)
	case ALDRPOST, ASTRPOST:
		return fmt.Sprintf("%s %s, [%s], #%d", armMnemonic(i.Op)[:3], ARMRegName(i.Rt), ARMRegName(i.Rs), i.Imm)
	case AVLDR, AVSTR:
		return fmt.Sprintf("%s %s, [%s, #%d]", armMnemonic(i.Op), ARMFRegName(i.Rt), ARMRegName(i.Rs), i.Imm)
	}
	return i.Op.Name()
}

// armMnemonic strips the "arm." namespace off an ARM op's table name.
func armMnemonic(op Op) string { return opNames[op][len("arm."):] }
