package minic

import (
	"fmt"
	"sort"
	"strconv"

	"delinq/internal/asm"
	"delinq/internal/isa"
	"delinq/internal/obj"
)

// Options selects the code-generation mode.
type Options struct {
	// Optimize enables -O: scalar locals and parameters whose address is
	// never taken are promoted to callee-saved registers, removing the
	// stack traffic that dominates unoptimised code.
	Optimize bool
}

// Compile translates mini-C source to assembly text accepted by the asm
// package, including the program entry stub and the runtime: the text
// rendering of CompileProgram's program.
func Compile(src string, opts Options) (string, error) {
	p, err := CompileProgram(src, opts)
	if err != nil {
		return "", err
	}
	return p.Text(), nil
}

// CompileProgram translates mini-C source to an assembler program of
// typed statements, including the program entry stub and the runtime.
// asm.AssembleProgram links it without any assembly text.
func CompileProgram(src string, opts Options) (*asm.Program, error) {
	prog, tokens, err := parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	// Generated code takes under one statement per source token, so
	// the statement list is sized once from the token count.
	stmts := make([]asm.Stmt, 0, tokens+runtimeStmts)
	g := &gen{prog: prog, opts: opts, p: &asm.Program{Stmts: stmts}}
	if err := g.run(); err != nil {
		return nil, err
	}
	return g.p, nil
}

// Register operands the generator names directly.
var (
	rZero = asm.Reg(isa.Zero)
	rAT   = asm.Reg(isa.AT)
	rV0   = asm.Reg(isa.V0)
	rSP   = asm.Reg(isa.SP)
	rRA   = asm.Reg(isa.RA)
	fF0   = asm.FReg(0)
)

// reg and freg are the operands of value registers.
func reg(r isa.Reg) asm.Operand  { return asm.Reg(r) }
func freg(r isa.Reg) asm.Operand { return asm.FReg(r) }

// imm is an integer operand.
func imm[T int | int32 | int64](v T) asm.Operand { return asm.Imm(int64(v)) }

// stack is the stack slot off($sp).
func stack(off int32) asm.Operand { return asm.Mem(int64(off), isa.SP) }

// Temp register pools: the caller-saved integer temporaries, the FP
// temporaries (their odd/even pairing is a COP1 detail), and the
// callee-saved registers -O promotes locals to.
var intTemps = []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.T6, isa.T7, isa.T8, isa.T9}
var fltTemps = []isa.Reg{4, 6, 8, 10, 14, 16, 18, 20}
var sRegs = []isa.Reg{isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7}

// value is an expression result: a register of one of the two classes.
type value struct {
	reg   isa.Reg
	isFlt bool
}

type gen struct {
	prog   *Program
	opts   Options
	p      *asm.Program
	fn     *FuncDecl
	labelN int

	frameSize int32
	spillBase int32 // base of the temp spill area
	nSpill    int32 // slots in the spill area

	intBusy map[isa.Reg]bool
	fltBusy map[isa.Reg]bool
	// spilled maps a busy register to its spill slot while a call is in
	// flight.
	usedS []isa.Reg

	breakL, contL []string
}

// inst appends one instruction.
func (g *gen) inst(m asm.Mnemonic, args ...asm.Operand) { g.p.Inst(m, args...) }

// newLabel returns a fresh local label.
func (g *gen) newLabel(prefix string) string {
	g.labelN++
	return ".L" + prefix + "_" + strconv.Itoa(g.labelN)
}

func (g *gen) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// --- register pool -----------------------------------------------------------

func (g *gen) allocInt(line int) (isa.Reg, error) {
	for _, r := range intTemps {
		if !g.intBusy[r] {
			g.intBusy[r] = true
			return r, nil
		}
	}
	return 0, g.errf(line, "expression too complex (out of integer temporaries)")
}

func (g *gen) allocFlt(line int) (isa.Reg, error) {
	for _, r := range fltTemps {
		if !g.fltBusy[r] {
			g.fltBusy[r] = true
			return r, nil
		}
	}
	return 0, g.errf(line, "expression too complex (out of float temporaries)")
}

func (g *gen) free(v value) {
	if v.isFlt {
		delete(g.fltBusy, v.reg)
	} else {
		delete(g.intBusy, v.reg)
	}
}

// saveLiveTemps spills every busy temporary around a call and returns a
// restore closure. Slots come from the per-function spill area.
func (g *gen) saveLiveTemps(line int) (func(), error) {
	type slot struct {
		v   value
		off int32
	}
	var saved []slot
	next := g.spillBase
	take := func(v value) error {
		if next >= g.spillBase+g.nSpill*4 {
			return g.errf(line, "expression too complex (spill area exhausted)")
		}
		saved = append(saved, slot{v, next})
		next += 4
		return nil
	}
	var ints []isa.Reg
	for r := range g.intBusy {
		ints = append(ints, r)
	}
	sort.Slice(ints, func(i, j int) bool { return ints[i] < ints[j] })
	for _, r := range ints {
		if err := take(value{reg: r}); err != nil {
			return nil, err
		}
	}
	var flts []isa.Reg
	for r := range g.fltBusy {
		flts = append(flts, r)
	}
	sort.Slice(flts, func(i, j int) bool { return flts[i] < flts[j] })
	for _, r := range flts {
		if err := take(value{reg: r, isFlt: true}); err != nil {
			return nil, err
		}
	}
	for _, s := range saved {
		if s.v.isFlt {
			g.inst(asm.SS, freg(s.v.reg), stack(s.off))
		} else {
			g.inst(asm.SW, reg(s.v.reg), stack(s.off))
		}
	}
	return func() {
		for _, s := range saved {
			if s.v.isFlt {
				g.inst(asm.LS, freg(s.v.reg), stack(s.off))
			} else {
				g.inst(asm.LW, reg(s.v.reg), stack(s.off))
			}
		}
	}, nil
}

// --- program-level emission ---------------------------------------------------

func (g *gen) run() error {
	// Struct metadata for the BDH classifier.
	var names []string
	for name := range g.prog.Structs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g.p.Dir(asm.DStruct, asm.Typ(g.prog.Structs[name]))
	}

	// Data segment.
	g.p.Dir(asm.DData)
	for _, gd := range g.prog.Globals {
		g.p.Dir(asm.DObject, asm.Sym(gd.Name), asm.Typ(gd.Ty))
		switch {
		case gd.InitInt != nil:
			d := asm.DWord
			if gd.Ty.Kind == obj.KindChar {
				d = asm.DByte
			} else if gd.Ty.Kind == obj.KindFloat {
				d = asm.DFloat
			}
			g.p.LabelDir(gd.Name, d, imm(*gd.InitInt))
		case gd.InitFloat != nil:
			g.p.LabelDir(gd.Name, asm.DFloat, asm.Float(*gd.InitFloat))
		default:
			g.p.LabelDir(gd.Name, asm.DSpace, imm(gd.Ty.Size()))
		}
		g.p.Dir(asm.DAlign, imm(2))
	}
	for _, s := range g.prog.Strings {
		g.p.LabelDir(s.Label, asm.DAsciiz, asm.Str(s.Val))
		g.p.Dir(asm.DAlign, imm(2))
	}

	// Entry stub and runtime.
	g.p.Dir(asm.DText)
	g.p.Dir(asm.DEntry, asm.Sym("__start"))
	g.p.Label("__start")
	g.inst(asm.JAL, asm.Sym("main"))
	g.inst(asm.MOVE, reg(isa.A0), rV0)
	g.inst(asm.LI, rV0, imm(10))
	g.inst(asm.SYSCALL)
	g.runtime()

	for _, fn := range g.prog.Funcs {
		if err := g.genFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

// runtimeStmts is how many statements the section directives, the entry
// stub and the runtime take; it only sizes the statement list.
const runtimeStmts = 61

// runtime emits the builtin library functions: each is one VM service
// call (free is a no-op).
func (g *gen) runtime() {
	for _, r := range []struct {
		name    string
		service int
	}{
		{"malloc", 9}, {"sbrk", 9}, {"free", 0}, {"print_int", 1},
		{"print_char", 11}, {"print_str", 4}, {"print_float", 2},
		{"arg", 40}, {"nargs", 41},
	} {
		g.p.Dir(asm.DFunc, asm.Sym(r.name), imm(0))
		g.p.Label(r.name)
		if r.name == "print_float" {
			// The float argument travels as raw bits in $a0.
			g.inst(asm.MTC1, reg(isa.A0), asm.FReg(12))
		}
		if r.service != 0 {
			g.inst(asm.LI, rV0, imm(r.service))
			g.inst(asm.SYSCALL)
		}
		g.inst(asm.JR, rRA)
		g.p.Dir(asm.DEndfunc)
	}
}

var builtinLabels = map[Builtin]string{
	BMalloc: "malloc", BFree: "free", BSbrk: "sbrk",
	BPrintInt: "print_int", BPrintChar: "print_char",
	BPrintStr: "print_str", BPrintFloat: "print_float",
	BArg: "arg", BNargs: "nargs",
}

// --- function emission ----------------------------------------------------------

func (g *gen) genFunc(fn *FuncDecl) error {
	g.fn = fn
	g.intBusy = map[isa.Reg]bool{}
	g.fltBusy = map[isa.Reg]bool{}
	g.usedS = nil

	// Register promotion (-O): scalar, address never taken, int-class.
	if g.opts.Optimize {
		for _, sym := range fn.Syms {
			if len(g.usedS) >= len(sRegs) {
				break
			}
			if sym.AddrTaken || sym.Ty.IsAggregate() ||
				sym.Ty.Kind == obj.KindFloat || sym.Ty.Kind == obj.KindChar {
				continue
			}
			sym.Reg = int(sRegs[len(g.usedS)])
			g.usedS = append(g.usedS, sRegs[len(g.usedS)])
		}
	}

	// Frame layout: [spill area][stack vars][saved s-regs][ra].
	g.nSpill = 12
	g.spillBase = 0
	off := g.nSpill * 4
	for _, sym := range fn.Syms {
		if sym.Reg >= 0 {
			continue
		}
		sz := int32(sym.Ty.Size())
		sz = (sz + 3) &^ 3
		sym.Offset = off
		off += sz
	}
	savedBase := off
	off += int32(len(g.usedS)) * 4
	raOff := off
	off += 4
	g.frameSize = (off + 7) &^ 7

	g.p.Dir(asm.DFunc, asm.Sym(fn.Name), imm(g.frameSize))
	for _, sym := range fn.Syms {
		if sym.Reg >= 0 {
			continue
		}
		dir := asm.DLocal
		if sym.IsParam {
			dir = asm.DParam
		}
		g.p.Dir(dir, asm.Sym(sym.Name), imm(sym.Offset), asm.Typ(sym.Ty))
	}
	g.p.Label(fn.Name)
	g.inst(asm.ADDIU, rSP, rSP, imm(-g.frameSize))
	g.inst(asm.SW, rRA, stack(raOff))
	for i, r := range g.usedS {
		g.inst(asm.SW, reg(r), stack(savedBase+int32(i)*4))
	}
	// Home the parameters.
	for _, sym := range fn.Syms {
		if !sym.IsParam {
			continue
		}
		areg := reg(isa.A0 + isa.Reg(sym.ParamIx))
		switch {
		case sym.Reg >= 0:
			g.inst(asm.MOVE, reg(isa.Reg(sym.Reg)), areg)
		case sym.Ty.Kind == obj.KindChar:
			g.inst(asm.SB, areg, stack(sym.Offset))
		default: // ints, pointers and the raw bits of floats
			g.inst(asm.SW, areg, stack(sym.Offset))
		}
	}

	epi := g.newLabel("epi_" + fn.Name)
	g.breakL, g.contL = nil, nil
	if err := g.genBlockInto(fn.Body, epi); err != nil {
		return err
	}

	g.p.Label(epi)
	g.inst(asm.LW, rRA, stack(raOff))
	for i, r := range g.usedS {
		g.inst(asm.LW, reg(r), stack(savedBase+int32(i)*4))
	}
	g.inst(asm.ADDIU, rSP, rSP, imm(g.frameSize))
	g.inst(asm.JR, rRA)
	g.p.Dir(asm.DEndfunc)
	return nil
}

type genCtx struct{ epilogue string }

func (g *gen) genBlockInto(b *Block, epilogue string) error {
	ctx := genCtx{epilogue: epilogue}
	for _, s := range b.Stmts {
		if err := g.genStmt(s, ctx); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) genStmt(s Stmt, ctx genCtx) error {
	switch st := s.(type) {
	case *Block:
		for _, inner := range st.Stmts {
			if err := g.genStmt(inner, ctx); err != nil {
				return err
			}
		}
		return nil

	case *DeclStmt:
		if st.Init == nil {
			return nil
		}
		v, err := g.genExpr(st.Init)
		if err != nil {
			return err
		}
		v, err = g.convert(v, st.Init.Type(), st.Sym.Ty, st.Ln)
		if err != nil {
			return err
		}
		err = g.storeVar(st.Sym, v, st.Ln)
		g.free(v)
		return err

	case *ExprStmt:
		v, err := g.genExpr(st.X)
		if err != nil {
			return err
		}
		g.free(v)
		return nil

	case *IfStmt:
		elseL := g.newLabel("else")
		endL := g.newLabel("endif")
		if err := g.genCondBranchFalse(st.Cond, elseL); err != nil {
			return err
		}
		if err := g.genStmt(st.Then, ctx); err != nil {
			return err
		}
		if st.Else != nil {
			g.inst(asm.B, asm.Sym(endL))
		}
		g.p.Label(elseL)
		if st.Else != nil {
			if err := g.genStmt(st.Else, ctx); err != nil {
				return err
			}
			g.p.Label(endL)
		}
		return nil

	case *WhileStmt:
		top := g.newLabel("while")
		end := g.newLabel("wend")
		g.breakL = append(g.breakL, end)
		g.contL = append(g.contL, top)
		g.p.Label(top)
		if err := g.genCondBranchFalse(st.Cond, end); err != nil {
			return err
		}
		if err := g.genStmt(st.Body, ctx); err != nil {
			return err
		}
		g.inst(asm.B, asm.Sym(top))
		g.p.Label(end)
		g.breakL = g.breakL[:len(g.breakL)-1]
		g.contL = g.contL[:len(g.contL)-1]
		return nil

	case *ForStmt:
		top := g.newLabel("for")
		post := g.newLabel("fpost")
		end := g.newLabel("fend")
		if st.Init != nil {
			if err := g.genStmt(st.Init, ctx); err != nil {
				return err
			}
		}
		g.breakL = append(g.breakL, end)
		g.contL = append(g.contL, post)
		g.p.Label(top)
		if st.Cond != nil {
			if err := g.genCondBranchFalse(st.Cond, end); err != nil {
				return err
			}
		}
		if err := g.genStmt(st.Body, ctx); err != nil {
			return err
		}
		g.p.Label(post)
		if st.Post != nil {
			v, err := g.genExpr(st.Post)
			if err != nil {
				return err
			}
			g.free(v)
		}
		g.inst(asm.B, asm.Sym(top))
		g.p.Label(end)
		g.breakL = g.breakL[:len(g.breakL)-1]
		g.contL = g.contL[:len(g.contL)-1]
		return nil

	case *ReturnStmt:
		if st.X != nil {
			v, err := g.genExpr(st.X)
			if err != nil {
				return err
			}
			v, err = g.convert(v, st.X.Type(), g.fn.Ret, st.Ln)
			if err != nil {
				return err
			}
			if v.isFlt {
				g.inst(asm.MOVS, fF0, freg(v.reg))
			} else {
				g.inst(asm.MOVE, rV0, reg(v.reg))
			}
			g.free(v)
		}
		g.inst(asm.B, asm.Sym(ctx.epilogue))
		return nil

	case *BreakStmt:
		if len(g.breakL) == 0 {
			return g.errf(st.Ln, "break outside loop")
		}
		g.inst(asm.B, asm.Sym(g.breakL[len(g.breakL)-1]))
		return nil

	case *ContinueStmt:
		if len(g.contL) == 0 {
			return g.errf(st.Ln, "continue outside loop")
		}
		g.inst(asm.B, asm.Sym(g.contL[len(g.contL)-1]))
		return nil
	}
	return fmt.Errorf("minic: unknown statement %T", s)
}

// genCondBranchFalse evaluates cond and branches to label when false.
func (g *gen) genCondBranchFalse(cond Expr, label string) error {
	v, err := g.genExpr(cond)
	if err != nil {
		return err
	}
	if v.isFlt {
		// Compare against 0.0.
		tmp, err := g.allocFlt(cond.Line())
		if err != nil {
			return err
		}
		g.inst(asm.MTC1, rZero, freg(tmp))
		g.inst(asm.CEQS, freg(v.reg), freg(tmp))
		delete(g.fltBusy, tmp)
		g.free(v)
		g.inst(asm.BC1T, asm.Sym(label))
		return nil
	}
	g.inst(asm.BEQZ, reg(v.reg), asm.Sym(label))
	g.free(v)
	return nil
}
