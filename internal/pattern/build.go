package pattern

import (
	"context"

	"delinq/internal/cfg"
	"delinq/internal/dataflow"
	"delinq/internal/disasm"
	"delinq/internal/isa"
)

// The expansion budgets keep the analysis "largely local", as the paper
// requires for acceptable compile-time cost. A budget that cuts an
// expansion short sets Load.Truncated; it never fails the analysis.
const (
	// maxPatterns caps the alternatives kept per load.
	maxPatterns = 8
	// MaxSize caps a single pattern's size, in nodes.
	MaxSize = 64
	// maxDepth caps substitution depth.
	maxDepth = 16
)

// Config selects the analysis. The zero Config is the paper's flat
// per-function analysis.
type Config struct {
	// Interprocedural resolves call boundaries instead of stopping at
	// them: Ret leaves are replaced by the callee's return-value
	// summary (instantiated with the argument patterns at the call
	// site) and Param leaves by the union of the argument patterns
	// arriving from the function's callers. The same expansion budgets
	// bound the extra expansion. Off by default, which reproduces the
	// paper's "largely local" analysis exactly.
	Interprocedural bool
}

// Load is one analysed load instruction with its address patterns.
type Load struct {
	Func      *disasm.Func
	Index     int
	PC        uint32
	Inst      isa.Inst
	Patterns  []*Expr
	Truncated bool
}

// AnalyzeProgramCtx builds address patterns for every load in the
// program. With conf.Interprocedural set it first computes every
// function's return-value patterns over the call graph, callee-first,
// and then resolves Ret and Param leaves through them; the returned
// loads appear in the same order as the intraprocedural analysis either
// way. Cancellation is checked before each function (in both
// interprocedural phases), so a deadline stops a pathological analysis
// at the next function boundary rather than after the whole program.
func AnalyzeProgramCtx(ctx context.Context, p *disasm.Program, conf Config) ([]*Load, error) {
	if conf.Interprocedural {
		s, err := summarize(ctx, p)
		if err != nil {
			return nil, err
		}
		return s.analyzeProgram(ctx)
	}
	var out []*Load
	for _, fn := range p.Funcs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out = append(out, analyzeFuncMachine(fn, p.Machine)...)
	}
	return out, nil
}

func analyzeFuncMachine(fn *disasm.Func, m isa.Machine) []*Load {
	b := newBuilder(fn, m, dataflow.AnalyzeMachine(cfg.Build(fn), m))
	return b.analyzeLoads()
}

// newBuilder constructs a pattern builder over fn's dataflow facts df,
// with register roles and the calling convention taken from m.
func newBuilder(fn *disasm.Func, m isa.Machine, df *dataflow.Result) *builder {
	b := &builder{
		fn:    fn,
		m:     m,
		df:    df,
		slots: map[int32]int8{},
		zero:  m.Zero(),
		sp:    m.SP(),
		fp:    m.FP(),
	}
	b.gp, b.hasGP = m.GP()
	for _, r := range m.ArgRegs() {
		b.argRegs |= 1 << r
	}
	for _, r := range m.RetRegs() {
		b.retRegs |= 1 << r
	}
	return b
}

// analyzeLoads builds the address patterns of every load in the
// builder's function.
func (b *builder) analyzeLoads() []*Load {
	var out []*Load
	for i, in := range b.fn.Insts {
		if !in.IsLoad() {
			continue
		}
		ld := &Load{Func: b.fn, Index: i, PC: b.fn.PC(i), Inst: in}
		b.truncated = false
		for _, base := range b.expandReg(in.Rs, i, 0, map[int]bool{}) {
			ld.Patterns = appendNew(ld.Patterns, binary(Add, base, NewConst(in.MemOffset())))
		}
		ld.Truncated = b.truncated
		out = append(out, ld)
	}
	return out
}

type builder struct {
	fn        *disasm.Func
	m         isa.Machine
	df        *dataflow.Result
	truncated bool
	// Register roles, resolved once from the machine description. gp is
	// meaningful only when hasGP is set; argRegs/retRegs are bitmasks
	// over the 32 shared register indices.
	zero, sp, fp, gp isa.Reg
	hasGP            bool
	argRegs, retRegs uint32
	// ipc, when non-nil, enables interprocedural resolution of Ret and
	// Param leaves through the program's per-function facts.
	ipc *interproc
	// summarizing is set while phase 1 computes fn's own return
	// patterns: a call into fn's strongly connected component (fn
	// included) then yields the recurrence marker instead of
	// recursing, and Param leaves stay unresolved.
	summarizing bool
	// slots memoises stack-slot recurrence queries: 1 yes, 2 no.
	slots map[int32]int8
	// storeSlots maps a stack-slot offset to the instructions that
	// store to it, resolved through address expansion (compiled code
	// computes slot addresses in a temporary before storing).
	storeSlots map[int32][]int
	// slotQueryDepth is non-zero while a slotRecurrent query is
	// expanding stored values, suppressing nested recurrence checks.
	slotQueryDepth int
}

// ensureStoreSlots builds the slot→stores index once per function.
func (b *builder) ensureStoreSlots() {
	if b.storeSlots != nil {
		return
	}
	b.storeSlots = map[int32][]int{}
	b.slotQueryDepth++
	defer func() { b.slotQueryDepth-- }()
	saved := b.truncated
	defer func() { b.truncated = saved }()
	for i, in := range b.fn.Insts {
		if !in.IsStore() || in.IsFPMem() {
			continue
		}
		off := in.MemOffset()
		if in.Rs == b.sp || in.Rs == b.fp {
			b.storeSlots[off] = append(b.storeSlots[off], i)
			continue
		}
		for _, e := range b.expandReg(in.Rs, i, maxDepth/2, map[int]bool{}) {
			if o, ok := spSlot(binary(Add, e, NewConst(off))); ok {
				b.storeSlots[o] = append(b.storeSlots[o], i)
				break
			}
		}
	}
}

func (b *builder) cap(list []*Expr) []*Expr {
	if len(list) > maxPatterns {
		b.truncated = true
		return list[:maxPatterns]
	}
	return list
}

// expandReg returns the possible symbolic values of reg immediately
// before instruction `at` executes. visiting carries the definition IDs
// on the current substitution path for register-recurrence detection.
func (b *builder) expandReg(reg isa.Reg, at, depth int, visiting map[int]bool) []*Expr {
	switch {
	case reg == b.zero:
		return []*Expr{zeroConst}
	case b.hasGP && reg == b.gp:
		return []*Expr{gpLeaf}
	case reg == b.sp || reg == b.fp:
		return []*Expr{spLeaf}
	}
	if depth >= maxDepth {
		b.truncated = true
		return []*Expr{unknownLeaf}
	}
	defs := b.df.ReachingAt(at, reg)
	if len(defs) == 0 {
		return []*Expr{unknownLeaf}
	}
	var out []*Expr
	add := func(e *Expr) {
		if e.Size() > MaxSize {
			b.truncated = true
			e = unknownLeaf
		}
		out = appendNew(out, e)
	}
	for _, d := range defs {
		if len(out) >= maxPatterns {
			b.truncated = true
			break
		}
		switch d.Kind {
		case dataflow.DefEntry:
			if b.argRegs&(1<<reg) != 0 {
				if alts := b.resolveParam(reg); alts != nil {
					for _, e := range alts {
						add(e)
					}
				} else {
					add(&Expr{Kind: Param, Reg: reg})
				}
			} else {
				add(unknownLeaf)
			}
		case dataflow.DefCall:
			if b.retRegs&(1<<reg) != 0 {
				if alts := b.resolveRet(d, reg, depth, visiting); alts != nil {
					for _, e := range alts {
						add(e)
					}
				} else {
					add(&Expr{Kind: Ret, Reg: reg})
				}
			} else {
				add(unknownLeaf)
			}
		case dataflow.DefInst:
			if visiting[d.ID] {
				add(recLeaf)
				continue
			}
			visiting[d.ID] = true
			for _, e := range b.expandInst(d.Inst, reg, depth+1, visiting) {
				add(e)
			}
			delete(visiting, d.ID)
		}
	}
	if len(out) == 0 {
		out = []*Expr{unknownLeaf}
	}
	return b.cap(out)
}

// expandInst returns the symbolic values the defining instruction at
// index i produces in register target. Only the pre/post-indexed ARM
// memory ops define two registers; everywhere else target is implied
// by the opcode.
func (b *builder) expandInst(i int, target isa.Reg, depth int, visiting map[int]bool) []*Expr {
	in := b.fn.Insts[i]
	un := func(k Kind, opnd isa.Reg, rhs *Expr) []*Expr {
		var out []*Expr
		for _, l := range b.expandReg(opnd, i, depth, visiting) {
			out = append(out, binary(k, l, rhs))
		}
		return b.cap(out)
	}
	bin := func(k Kind, ra, rb isa.Reg) []*Expr {
		var out []*Expr
		ls := b.expandReg(ra, i, depth, visiting)
		rs := b.expandReg(rb, i, depth, visiting)
		for _, l := range ls {
			for _, r := range rs {
				out = append(out, binary(k, l, r))
			}
		}
		return b.cap(out)
	}

	// Writeback half of a pre/post-indexed access: the base register
	// advances by the immediate whichever indexing mode is in play.
	if in.WritesBack() && target == in.Rs {
		return un(Add, in.Rs, NewConst(in.Imm))
	}

	switch in.Op {
	case isa.ADDI, isa.ADDIU:
		return un(Add, in.Rs, NewConst(in.Imm))
	case isa.ORI:
		// In generated code ori is either constant synthesis (lui/ori)
		// or a bitmask; model it additively so constants fold.
		return un(Add, in.Rs, NewConst(in.Imm))
	case isa.LUI:
		return []*Expr{NewConst(in.Imm << 16)}
	case isa.ADD, isa.ADDU:
		if in.Rt == isa.Zero { // move idiom
			return b.expandReg(in.Rs, i, depth, visiting)
		}
		if in.Rs == isa.Zero {
			return b.expandReg(in.Rt, i, depth, visiting)
		}
		return bin(Add, in.Rs, in.Rt)
	case isa.SUB, isa.SUBU:
		return bin(Sub, in.Rs, in.Rt)
	case isa.MUL:
		return bin(Mul, in.Rs, in.Rt)
	case isa.SLL:
		return un(Shl, in.Rt, NewConst(in.Imm))
	case isa.SRL, isa.SRA:
		return un(Shr, in.Rt, NewConst(in.Imm))
	case isa.SLLV:
		return bin(Shl, in.Rt, in.Rs)
	case isa.SRLV, isa.SRAV:
		return bin(Shr, in.Rt, in.Rs)
	case isa.LW, isa.LB, isa.LBU, isa.LH, isa.LHU,
		isa.ALDR, isa.ALDRH, isa.ALDRSH, isa.ALDRB, isa.ALDRSB,
		isa.ALDRPRE, isa.ALDRPOST:
		var out []*Expr
		for _, base := range b.expandReg(in.Rs, i, depth, visiting) {
			addr := binary(Add, base, NewConst(in.MemOffset()))
			d := NewDeref(addr)
			// A load from a stack slot that feeds itself through a
			// store chain is an induction value: mark the recurrence.
			// Slot queries themselves must not recurse into this check.
			if off, ok := spSlot(addr); ok && b.slotQueryDepth == 0 &&
				b.slotRecurrent(off, map[int32]bool{}) {
				out = append(out, &Expr{Kind: Rec, L: d})
			} else {
				out = append(out, d)
			}
		}
		return b.cap(out)

	// ARM two-operand forms: Rd is both destination and left operand,
	// so its incoming value expands as the left subexpression.
	case isa.AMOV:
		return b.expandReg(in.Rs, i, depth, visiting)
	case isa.AMOVI:
		return []*Expr{NewConst(in.Imm)}
	case isa.AMOVW:
		return []*Expr{NewConst(in.Imm & 0xffff)}
	case isa.AMOVT:
		// movw/movt pairs materialise absolute addresses; fold the halves
		// back into one constant so global accesses stay classifiable.
		var out []*Expr
		for _, l := range b.expandReg(in.Rd, i, depth, visiting) {
			if l.Kind == Const {
				out = append(out, NewConst(l.Val&0xffff|in.Imm<<16))
			} else {
				out = append(out, binary(Add, l, NewConst(in.Imm<<16)))
			}
		}
		return b.cap(out)
	case isa.AADDI:
		return un(Add, in.Rd, NewConst(in.Imm))
	case isa.AORRI:
		// Like ori: constant synthesis or a bitmask; model additively.
		return un(Add, in.Rd, NewConst(in.Imm))
	case isa.AADD:
		return bin(Add, in.Rd, in.Rt)
	case isa.ASUB:
		return bin(Sub, in.Rd, in.Rt)
	case isa.ARSB:
		return bin(Sub, in.Rt, in.Rd)
	case isa.AMUL:
		return bin(Mul, in.Rd, in.Rt)
	case isa.ALSLI:
		return un(Shl, in.Rd, NewConst(in.Imm))
	case isa.ALSRI, isa.AASRI:
		return un(Shr, in.Rd, NewConst(in.Imm))
	case isa.ALSL:
		return bin(Shl, in.Rd, in.Rt)
	case isa.ALSR, isa.AASR:
		return bin(Shr, in.Rd, in.Rt)
	}
	return []*Expr{unknownLeaf}
}

// spSlot reports whether addr is sp+const and returns the offset.
func spSlot(addr *Expr) (int32, bool) {
	if addr.Kind == SP {
		return 0, true
	}
	if addr.Kind == Add && addr.L != nil && addr.L.Kind == SP &&
		addr.R != nil && addr.R.Kind == Const {
		return addr.R.Val, true
	}
	return 0, false
}

// slotRecurrent reports whether the stack slot at sp+off participates in
// a value cycle: some store to the slot computes its value (transitively,
// through other slots) from a load of the same slot. Unoptimised code
// keeps induction variables in such slots, so this is how H4 recurrences
// surface in -O0 binaries.
func (b *builder) slotRecurrent(off int32, visiting map[int32]bool) bool {
	if visiting[off] {
		return true
	}
	if v, ok := b.slots[off]; ok {
		return v == 1
	}
	b.ensureStoreSlots()
	visiting[off] = true
	defer delete(visiting, off)
	b.slotQueryDepth++
	defer func() { b.slotQueryDepth-- }()

	result := false
	for _, i := range b.storeSlots[off] {
		in := b.fn.Insts[i]
		// Expand the stored value (bounded) and look for loads of stack
		// slots among its leaves.
		saved := b.truncated
		exprs := b.expandReg(in.Rt, i, maxDepth/2, map[int]bool{})
		b.truncated = saved
		for _, e := range exprs {
			e.Walk(func(x *Expr) {
				if result || x.Kind != Deref {
					return
				}
				if o, ok := spSlot(x.L); ok {
					if o == off || b.slotRecurrent(o, visiting) {
						result = true
					}
				}
			})
			if result {
				break
			}
		}
		if result {
			break
		}
	}
	// Memoise only fully resolved queries (not ones cut by the visiting
	// set of an outer call).
	if len(visiting) == 1 {
		v := int8(2)
		if result {
			v = 1
		}
		b.slots[off] = v
	}
	return result
}
