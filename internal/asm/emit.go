package asm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"delinq/internal/isa"
	"delinq/internal/isa/mips"
	"delinq/internal/obj"
)

// --- metadata directives ---------------------------------------------------

// metaDirective applies a text-segment directive in emission order.
func (a *assembler) metaDirective(s *Stmt) error {
	switch s.Dir {
	case DFunc:
		f := &pendingFunc{name: s.Args[0].Name, frameSize: int32(s.Args[1].Int)}
		a.curFunc = f
		a.funcs = append(a.funcs, f)
	case DEndfunc:
		if a.curFunc == nil {
			return errf(s.Line, ".endfunc without .func")
		}
		a.curFunc = nil
	case DLocal, DParam:
		if a.curFunc == nil {
			return errf(s.Line, "%s outside .func", s.Dir)
		}
		a.curFunc.locals = append(a.curFunc.locals, obj.Local{
			Name: s.Args[0].Name, Offset: int32(s.Args[1].Int), Type: s.Args[2].Type,
		})
	case DGlobl, DStruct, DObject, DEntry:
		// Visibility is not modelled; metadata was read by prepass.
	default:
		return errf(s.Line, "unknown directive %s", s.Dir)
	}
	return nil
}

// --- text layout and emission ----------------------------------------------

// instSize returns how many machine words the (possibly pseudo)
// instruction expands to. It reads the operands expand reads, so the
// two cannot disagree.
func (a *assembler) instSize(s *Stmt) uint32 {
	switch s.Op {
	case LI:
		if v := s.Args[1].Int; fitsSigned16(v) || fitsUnsigned16(v) {
			return 1
		}
		return 2
	case LA:
		if a.gpRelOK(s.Args[1]) {
			return 1
		}
		return 2
	case LIS:
		return 3
	case BGE, BGT, BLE, BLT:
		return 2
	case LW, LH, LB, LBU, LHU, SW, SH, SB, LWC1, SWC1, LS, SS:
		// Bare-symbol memory operands expand; "off(reg)" forms do not.
		if s.Args[1].Kind == KSym && !a.gpRelOK(s.Args[1]) {
			return 2
		}
		return 1
	}
	return 1
}

// gpRelOK reports whether a symbol operand names a data symbol (with
// optional offset) whose address is reachable from $gp with a signed
// 16-bit displacement.
func (a *assembler) gpRelOK(o Operand) bool {
	sym, ok := a.sym[o.Name]
	if !ok || sym.seg != segData {
		return false
	}
	return fitsSigned16(int64(sym.addr) + o.Int - int64(a.img.GPValue))
}

// layoutText places every text label and returns the text size in
// words.
func (a *assembler) layoutText() (int, error) {
	a.seg = segText
	loc := obj.TextBase
	for i := range a.stmts {
		s := &a.stmts[i]
		if s.Label != "" && a.seg == segText {
			if _, dup := a.sym[s.Label]; dup {
				return 0, errf(s.Line, "duplicate symbol %q", s.Label)
			}
			a.sym[s.Label] = symbol{loc, segText}
		}
		switch {
		case s.Dir == DText:
			a.seg = segText
		case s.Dir == DData:
			a.seg = segData
		case a.seg == segText && s.Op != 0:
			loc += a.instSize(s) * 4
		}
	}
	return int(loc-obj.TextBase) / 4, nil
}

func (a *assembler) emit() error {
	a.seg = segText
	a.emitPC = obj.TextBase
	for i := range a.stmts {
		s := &a.stmts[i]
		switch {
		case s.Dir == DText:
			a.seg = segText
		case s.Dir == DData:
			a.seg = segData
		case a.seg != segText:
		case s.Dir != 0:
			if err := a.metaDirective(s); err != nil {
				return err
			}
		case s.Op != 0:
			insts, err := a.expand(s)
			if err != nil {
				return err
			}
			for _, in := range insts {
				w, err := mips.Encode(in)
				if err != nil {
					return errf(s.Line, "%v", err)
				}
				a.img.Text = append(a.img.Text, w)
				a.emitPC += 4
			}
		}
	}
	return nil
}

// expand converts one source instruction to its machine instructions.
// All label addresses are final when this runs.
func (a *assembler) expand(s *Stmt) ([]isa.Inst, error) {
	o := mnemonics[s.Op].op
	pc := a.emitPC
	out := a.insts[:0]
	r := func(i int) isa.Reg { return s.Args[i].Reg }
	imm := func(i int) int32 { return int32(s.Args[i].Int) }
	// branchOff computes the signed word offset to operand i's target
	// from an instruction that will be emitted at address at.
	branchOff := func(i int, at uint32) (int32, error) {
		target, err := a.resolveText(s, s.Args[i])
		return int32(target-(at+4)) >> 2, err
	}

	switch s.Op {
	case NOP, SYSCALL:
		return append(out, isa.Inst{Op: o}), nil

	case ADD, ADDU, SUB, SUBU, AND, OR, XOR, NOR, SLT, SLTU, MUL:
		return append(out, isa.Inst{Op: o, Rd: r(0), Rs: r(1), Rt: r(2)}), nil

	case SLLV, SRLV, SRAV:
		return append(out, isa.Inst{Op: o, Rd: r(0), Rt: r(1), Rs: r(2)}), nil

	case SLL, SRL, SRA:
		return append(out, isa.Inst{Op: o, Rd: r(0), Rt: r(1), Imm: imm(2)}), nil

	case MULT, DIV, DIVU:
		return append(out, isa.Inst{Op: o, Rs: r(0), Rt: r(1)}), nil

	case MFHI, MFLO:
		return append(out, isa.Inst{Op: o, Rd: r(0)}), nil

	case ADDI, ADDIU, SLTI, SLTIU, ANDI, ORI, XORI:
		return append(out, isa.Inst{Op: o, Rt: r(0), Rs: r(1), Imm: imm(2)}), nil

	case LUI:
		return append(out, isa.Inst{Op: isa.LUI, Rt: r(0), Imm: imm(1) & 0xffff}), nil

	case LW, LH, LB, LBU, LHU, SW, SH, SB, LWC1, SWC1, LS, SS:
		return a.memAccess(s, o, r(0))

	case BEQ, BNE:
		off, err := branchOff(2, pc)
		return append(out, isa.Inst{Op: o, Rs: r(0), Rt: r(1), Imm: off}), err

	case BLEZ, BGTZ, BLTZ, BGEZ:
		off, err := branchOff(1, pc)
		return append(out, isa.Inst{Op: o, Rs: r(0), Imm: off}), err

	case BEQZ, BNEZ:
		off, err := branchOff(1, pc)
		return append(out, isa.Inst{Op: o, Rs: r(0), Rt: isa.Zero, Imm: off}), err

	case B:
		off, err := branchOff(0, pc)
		return append(out, isa.Inst{Op: isa.BEQ, Rs: isa.Zero, Rt: isa.Zero, Imm: off}), err

	case BGE, BGT, BLE, BLT:
		rs, rt := r(0), r(1)
		off, err := branchOff(2, pc+4) // branch is the second word
		switch s.Op {
		case BGE: // rs >= rt: !(rs < rt)
			out = append(out, isa.Inst{Op: isa.SLT, Rd: isa.AT, Rs: rs, Rt: rt},
				isa.Inst{Op: isa.BEQ, Rs: isa.AT, Rt: isa.Zero, Imm: off})
		case BLT:
			out = append(out, isa.Inst{Op: isa.SLT, Rd: isa.AT, Rs: rs, Rt: rt},
				isa.Inst{Op: isa.BNE, Rs: isa.AT, Rt: isa.Zero, Imm: off})
		case BGT: // rs > rt: rt < rs
			out = append(out, isa.Inst{Op: isa.SLT, Rd: isa.AT, Rs: rt, Rt: rs},
				isa.Inst{Op: isa.BNE, Rs: isa.AT, Rt: isa.Zero, Imm: off})
		case BLE: // rs <= rt: !(rt < rs)
			out = append(out, isa.Inst{Op: isa.SLT, Rd: isa.AT, Rs: rt, Rt: rs},
				isa.Inst{Op: isa.BEQ, Rs: isa.AT, Rt: isa.Zero, Imm: off})
		}
		return out, err

	case BC1T, BC1F:
		off, err := branchOff(0, pc)
		return append(out, isa.Inst{Op: o, Imm: off}), err

	case J, JAL:
		target, err := a.resolveText(s, s.Args[0])
		return append(out, isa.Inst{Op: o, Imm: int32(target >> 2)}), err

	case JR:
		return append(out, isa.Inst{Op: isa.JR, Rs: r(0)}), nil

	case JALR:
		if len(s.Args) == 1 {
			return append(out, isa.Inst{Op: isa.JALR, Rd: isa.RA, Rs: r(0)}), nil
		}
		return append(out, isa.Inst{Op: isa.JALR, Rd: r(0), Rs: r(1)}), nil

	case MOVE:
		return append(out, isa.Inst{Op: isa.ADDU, Rd: r(0), Rs: r(1), Rt: isa.Zero}), nil

	case NEG:
		return append(out, isa.Inst{Op: isa.SUB, Rd: r(0), Rs: isa.Zero, Rt: r(1)}), nil

	case NOT:
		return append(out, isa.Inst{Op: isa.NOR, Rd: r(0), Rs: r(1), Rt: isa.Zero}), nil

	case LI:
		return append(out, loadImm(r(0), imm(1))...), nil

	case LA:
		return a.loadAddr(s, r(0), s.Args[1])

	case LIS:
		bits, ok := float32Bits(s.Args[1])
		if !ok {
			return nil, errf(s.Line, "bad float literal %q", floatText(s.Args[1]))
		}
		return append(out,
			isa.Inst{Op: isa.LUI, Rt: isa.AT, Imm: int32(bits >> 16)},
			isa.Inst{Op: isa.ORI, Rt: isa.AT, Rs: isa.AT, Imm: int32(bits & 0xffff)},
			isa.Inst{Op: isa.MTC1, Rt: isa.AT, Rd: r(0)}), nil

	case ADDS, SUBS, MULS, DIVS:
		return append(out, isa.Inst{Op: o, Rd: r(0), Rs: r(1), Rt: r(2)}), nil

	case MOVS, NEGS, CVTSW, CVTWS:
		return append(out, isa.Inst{Op: o, Rd: r(0), Rs: r(1)}), nil

	case CEQS, CLTS, CLES:
		return append(out, isa.Inst{Op: o, Rs: r(0), Rt: r(1)}), nil

	case MFC1, MTC1:
		return append(out, isa.Inst{Op: o, Rt: r(0), Rd: r(1)}), nil
	}
	return nil, errf(s.Line, "unknown mnemonic %q", s.Op.String())
}

// memAccess assembles the address operand of a load/store whose data
// register is rt.
func (a *assembler) memAccess(s *Stmt, o isa.Op, rt isa.Reg) ([]isa.Inst, error) {
	arg := s.Args[1]
	if arg.Kind == KMem {
		off := arg.Int
		if arg.Name != "" {
			// sym+off(reg) with $gp base resolves gp-relative.
			sym, ok := a.sym[arg.Name]
			if !ok || arg.Reg != isa.GP {
				return nil, errf(s.Line, "bad memory offset %q", symText(arg.Name, arg.Int))
			}
			off = int64(sym.addr) + arg.Int - int64(a.img.GPValue)
		}
		if !fitsSigned16(off) {
			return nil, errf(s.Line, "memory offset %d out of range", off)
		}
		return append(a.insts[:0], isa.Inst{Op: o, Rt: rt, Rs: arg.Reg, Imm: int32(off)}), nil
	}
	// Bare symbol: gp-relative if reachable, else lui+offset.
	sym, ok := a.sym[arg.Name]
	if !ok {
		return nil, errf(s.Line, "unknown symbol %q", arg.Name)
	}
	target := int64(sym.addr) + arg.Int
	if a.gpRelOK(arg) {
		return append(a.insts[:0], isa.Inst{Op: o, Rt: rt, Rs: isa.GP, Imm: int32(target - int64(a.img.GPValue))}), nil
	}
	hi, lo := hiLo(uint32(target))
	return append(a.insts[:0],
		isa.Inst{Op: isa.LUI, Rt: isa.AT, Imm: hi},
		isa.Inst{Op: o, Rt: rt, Rs: isa.AT, Imm: lo}), nil
}

// loadAddr assembles `la rd, sym[+off]`.
func (a *assembler) loadAddr(s *Stmt, rd isa.Reg, arg Operand) ([]isa.Inst, error) {
	sym, ok := a.sym[arg.Name]
	if !ok {
		return nil, errf(s.Line, "unknown symbol %q", arg.Name)
	}
	target := int64(sym.addr) + arg.Int
	if a.gpRelOK(arg) {
		return append(a.insts[:0], isa.Inst{Op: isa.ADDIU, Rt: rd, Rs: isa.GP, Imm: int32(target - int64(a.img.GPValue))}), nil
	}
	hi, lo := hiLo(uint32(target))
	return append(a.insts[:0],
		isa.Inst{Op: isa.LUI, Rt: rd, Imm: hi},
		isa.Inst{Op: isa.ADDIU, Rt: rd, Rs: rd, Imm: lo}), nil
}

// loadImm materialises a 32-bit constant.
func loadImm(rd isa.Reg, v int32) []isa.Inst {
	if fitsSigned16(int64(v)) {
		return []isa.Inst{{Op: isa.ADDIU, Rt: rd, Rs: isa.Zero, Imm: v}}
	}
	if fitsUnsigned16(int64(v)) {
		return []isa.Inst{{Op: isa.ORI, Rt: rd, Rs: isa.Zero, Imm: v}}
	}
	return []isa.Inst{
		{Op: isa.LUI, Rt: rd, Imm: int32(uint32(v) >> 16)},
		{Op: isa.ORI, Rt: rd, Rs: rd, Imm: v & 0xffff},
	}
}

// hiLo splits an address for a lui/lo16 pair with sign-compensated low
// half, as conventional MIPS assemblers do.
func hiLo(addr uint32) (hi, lo int32) {
	lo = int32(int16(addr & 0xffff))
	hi = int32((addr - uint32(lo)) >> 16)
	return hi, lo
}

// resolveText returns the address a branch or jump operand names: an
// absolute integer, or a label plus offset.
func (a *assembler) resolveText(s *Stmt, o Operand) (uint32, error) {
	if o.Kind == KImm {
		return uint32(o.Int), nil
	}
	sym, ok := a.sym[o.Name]
	if !ok {
		return 0, errf(s.Line, "unknown label %q", o.Name)
	}
	return sym.addr + uint32(o.Int), nil
}

// --- finalisation ------------------------------------------------------------

func (a *assembler) finish() error {
	// Patch .word fixups now every symbol is placed.
	for _, fx := range a.fixups {
		sym, ok := a.sym[fx.sym]
		if !ok {
			return errf(fx.line, "unknown symbol %q", fx.sym)
		}
		binary.LittleEndian.PutUint32(a.img.Data[fx.off:], uint32(int64(sym.addr)+fx.add))
	}

	// Determine which text labels start functions: .func metadata, call
	// targets, address-taken labels, function pointers in data, and the
	// conventional entry names. Plain loop labels stay invisible.
	starts := map[string]bool{}
	for _, f := range a.funcs {
		starts[f.name] = true
	}
	textSym := func(o Operand) {
		if sym, ok := a.sym[o.Name]; ok && o.Kind == KSym && sym.seg == segText {
			starts[o.Name] = true
		}
	}
	for i := range a.stmts {
		s := &a.stmts[i]
		switch {
		case s.Op == JAL:
			textSym(s.Args[0])
		case s.Op == LA:
			textSym(s.Args[1])
		case s.Dir == DWord:
			for _, o := range s.Args {
				textSym(o)
			}
		}
	}
	for _, name := range []string{a.entry, "__start", "main"} {
		if sym, ok := a.sym[name]; ok && sym.seg == segText {
			starts[name] = true
		}
	}

	// Function extents: from each start to the next start address.
	addrs := make([]uint32, 0, len(starts))
	for name := range starts {
		addrs = append(addrs, a.sym[name].addr)
	}
	slices.Sort(addrs)
	end := func(addr uint32) uint32 {
		i := sort.Search(len(addrs), func(i int) bool { return addrs[i] > addr })
		if i < len(addrs) {
			return addrs[i]
		}
		return obj.TextBase + uint32(len(a.img.Text))*4
	}

	for _, f := range a.funcs {
		sym, ok := a.sym[f.name]
		if !ok || sym.seg != segText {
			return &Error{Msg: fmt.Sprintf(".func %q has no text label", f.name)}
		}
		delete(starts, f.name)
		a.img.Syms = append(a.img.Syms, obj.Sym{
			Name: f.name, Addr: sym.addr, Size: end(sym.addr) - sym.addr, Kind: obj.SymFunc,
			Locals: f.locals, FrameSize: f.frameSize,
		})
	}
	// The remaining starts have no .func; they follow in address order
	// (then by name), so the image does not depend on map order.
	undeclared := make([]string, 0, len(starts))
	for name := range starts {
		undeclared = append(undeclared, name)
	}
	slices.SortFunc(undeclared, func(x, y string) int {
		if c := cmp.Compare(a.sym[x].addr, a.sym[y].addr); c != 0 {
			return c
		}
		return strings.Compare(x, y)
	})
	for _, name := range undeclared {
		addr := a.sym[name].addr
		a.img.Syms = append(a.img.Syms, obj.Sym{
			Name: name, Addr: addr, Size: end(addr) - addr, Kind: obj.SymFunc,
		})
	}

	// Entry point.
	entry := a.entry
	if entry == "" {
		if _, ok := a.sym["__start"]; ok {
			entry = "__start"
		} else {
			entry = "main"
		}
	}
	sym, ok := a.sym[entry]
	if !ok {
		return &Error{Msg: fmt.Sprintf("entry symbol %q not defined", entry)}
	}
	a.img.Entry = sym.addr
	return nil
}

// --- small helpers -----------------------------------------------------------

func fitsSigned16(v int64) bool   { return v >= -32768 && v <= 32767 }
func fitsUnsigned16(v int64) bool { return v >= 0 && v <= 65535 }
