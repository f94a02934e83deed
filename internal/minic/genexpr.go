package minic

import (
	"delinq/internal/asm"
	"delinq/internal/isa"
	"delinq/internal/obj"
)

// loadOp returns the load mnemonic for a scalar type.
func loadOp(t *obj.Type) asm.Mnemonic {
	switch t.Kind {
	case obj.KindChar:
		return asm.LB
	case obj.KindFloat:
		return asm.LS
	}
	return asm.LW
}

// storeOp returns the store mnemonic for a scalar type.
func storeOp(t *obj.Type) asm.Mnemonic {
	switch t.Kind {
	case obj.KindChar:
		return asm.SB
	case obj.KindFloat:
		return asm.SS
	}
	return asm.SW
}

// valueReg is the operand of a value's register, of either class.
func valueReg(v value) asm.Operand {
	if v.isFlt {
		return freg(v.reg)
	}
	return reg(v.reg)
}

// varAddr is the operand naming a memory-resident variable: its global
// label or its stack slot.
func varAddr(sym *VarSym) asm.Operand {
	if sym.Global {
		return asm.Sym(sym.Label)
	}
	return stack(sym.Offset)
}

// convert coerces v from type `from` to type `to`, converting between
// the integer and float classes when needed.
func (g *gen) convert(v value, from, to *obj.Type, line int) (value, error) {
	if from == nil || to == nil {
		return v, nil
	}
	fromFlt := from.Kind == obj.KindFloat
	toFlt := to.Kind == obj.KindFloat
	switch {
	case fromFlt == toFlt:
		return v, nil
	case toFlt:
		fr, err := g.allocFlt(line)
		if err != nil {
			return v, err
		}
		g.inst(asm.MTC1, reg(v.reg), freg(fr))
		g.inst(asm.CVTSW, freg(fr), freg(fr))
		g.free(v)
		return value{reg: fr, isFlt: true}, nil
	default:
		ir, err := g.allocInt(line)
		if err != nil {
			return v, err
		}
		g.inst(asm.CVTWS, freg(v.reg), freg(v.reg))
		g.inst(asm.MFC1, reg(ir), freg(v.reg))
		g.free(v)
		return value{reg: ir}, nil
	}
}

// genAddr materialises the address of an lvalue into an integer
// register. Register-promoted variables have no address; callers check.
func (g *gen) genAddr(e Expr) (value, error) {
	switch x := e.(type) {
	case *Ident:
		sym := x.Sym
		if sym.Reg >= 0 {
			return value{}, g.errf(x.Ln, "internal: address of register variable %s", sym.Name)
		}
		r, err := g.allocInt(x.Ln)
		if err != nil {
			return value{}, err
		}
		g.addrOf(r, sym)
		return value{reg: r}, nil

	case *Unary:
		if x.Op != Star {
			return value{}, g.errf(x.Ln, "internal: genAddr of unary %v", x.Op)
		}
		return g.genExpr(x.X)

	case *Index:
		base, err := g.genExpr(x.X) // array decays to its address
		if err != nil {
			return value{}, err
		}
		idx, err := g.genExpr(x.I)
		if err != nil {
			return value{}, err
		}
		elem := x.Type()
		size := elem.Size()
		switch {
		case size == 1:
			// no scaling
		case size&(size-1) == 0:
			g.inst(asm.SLL, reg(idx.reg), reg(idx.reg), imm(log2i(size)))
		default:
			tmp, err := g.allocInt(x.Ln)
			if err != nil {
				return value{}, err
			}
			g.inst(asm.LI, reg(tmp), imm(size))
			g.inst(asm.MUL, reg(idx.reg), reg(idx.reg), reg(tmp))
			delete(g.intBusy, tmp)
		}
		g.inst(asm.ADD, reg(base.reg), reg(base.reg), reg(idx.reg))
		g.free(idx)
		return base, nil

	case *Member:
		var base value
		var err error
		if x.Arrow {
			base, err = g.genExpr(x.X)
		} else {
			base, err = g.genAddr(x.X)
		}
		if err != nil {
			return value{}, err
		}
		if x.Field.Offset != 0 {
			g.inst(asm.ADDIU, reg(base.reg), reg(base.reg), imm(x.Field.Offset))
		}
		return base, nil
	}
	return value{}, g.errf(e.Line(), "internal: genAddr of %T", e)
}

// addrOf puts the address of a memory-resident variable in r.
func (g *gen) addrOf(r isa.Reg, sym *VarSym) {
	if sym.Global {
		g.inst(asm.LA, reg(r), asm.Sym(sym.Label))
	} else {
		g.inst(asm.ADDIU, reg(r), rSP, imm(sym.Offset))
	}
}

func log2i(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// loadVar reads a variable into a fresh register.
func (g *gen) loadVar(sym *VarSym, line int) (value, error) {
	t := sym.Ty
	if sym.Reg >= 0 {
		r, err := g.allocInt(line)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.MOVE, reg(r), reg(isa.Reg(sym.Reg)))
		return value{reg: r}, nil
	}
	// Aggregates decay to their address.
	if t.IsAggregate() {
		r, err := g.allocInt(line)
		if err != nil {
			return value{}, err
		}
		g.addrOf(r, sym)
		return value{reg: r}, nil
	}
	if t.Kind == obj.KindFloat {
		r, err := g.allocFlt(line)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.LS, freg(r), varAddr(sym))
		return value{reg: r, isFlt: true}, nil
	}
	r, err := g.allocInt(line)
	if err != nil {
		return value{}, err
	}
	g.inst(loadOp(t), reg(r), varAddr(sym))
	return value{reg: r}, nil
}

// storeVar writes v into a variable.
func (g *gen) storeVar(sym *VarSym, v value, line int) error {
	t := sym.Ty
	if sym.Reg >= 0 {
		if v.isFlt {
			return g.errf(line, "internal: float store to register variable")
		}
		g.inst(asm.MOVE, reg(isa.Reg(sym.Reg)), reg(v.reg))
		return nil
	}
	g.inst(storeOp(t), valueReg(v), varAddr(sym))
	return nil
}

// loadThrough dereferences an address register into a value of type t,
// reusing the address register for integer results.
func (g *gen) loadThrough(addr value, t *obj.Type, line int) (value, error) {
	if t.IsAggregate() {
		// The address is the value.
		return addr, nil
	}
	if t.Kind == obj.KindFloat {
		fr, err := g.allocFlt(line)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.LS, freg(fr), asm.Mem(0, addr.reg))
		g.free(addr)
		return value{reg: fr, isFlt: true}, nil
	}
	g.inst(loadOp(t), reg(addr.reg), asm.Mem(0, addr.reg))
	return addr, nil
}

// genExpr evaluates e into a register.
func (g *gen) genExpr(e Expr) (value, error) {
	switch x := e.(type) {
	case *IntLit:
		r, err := g.allocInt(x.Ln)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.LI, reg(r), imm(int32(x.Val)))
		return value{reg: r}, nil

	case *FloatLit:
		r, err := g.allocFlt(x.Ln)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.LIS, freg(r), asm.Float(x.Val))
		return value{reg: r, isFlt: true}, nil

	case *StrLit:
		r, err := g.allocInt(x.Ln)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.LA, reg(r), asm.Sym(x.Label))
		return value{reg: r}, nil

	case *SizeofExpr:
		r, err := g.allocInt(x.Ln)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.LI, reg(r), imm(x.Of.Size()))
		return value{reg: r}, nil

	case *Ident:
		return g.loadVar(x.Sym, x.Ln)

	case *Index, *Member:
		addr, err := g.genAddr(e)
		if err != nil {
			return value{}, err
		}
		return g.loadThrough(addr, e.Type(), e.Line())

	case *Unary:
		return g.genUnary(x)

	case *Binary:
		return g.genBinary(x)

	case *AssignExpr:
		return g.genAssign(x)

	case *Call:
		return g.genCall(x)
	}
	return value{}, g.errf(e.Line(), "internal: genExpr of %T", e)
}

func (g *gen) genUnary(x *Unary) (value, error) {
	switch x.Op {
	case Star:
		addr, err := g.genExpr(x.X)
		if err != nil {
			return value{}, err
		}
		return g.loadThrough(addr, x.Type(), x.Ln)

	case Amp:
		return g.genAddr(x.X)

	case Minus:
		v, err := g.genExpr(x.X)
		if err != nil {
			return value{}, err
		}
		if v.isFlt {
			g.inst(asm.NEGS, freg(v.reg), freg(v.reg))
		} else {
			g.inst(asm.NEG, reg(v.reg), reg(v.reg))
		}
		return v, nil

	case Not:
		v, err := g.genExpr(x.X)
		if err != nil {
			return value{}, err
		}
		if v.isFlt {
			v2, err := g.convert(v, obj.TypeFloat, obj.TypeInt, x.Ln)
			if err != nil {
				return value{}, err
			}
			v = v2
		}
		g.inst(asm.SLTIU, reg(v.reg), reg(v.reg), imm(1))
		return v, nil

	case Tilde:
		v, err := g.genExpr(x.X)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.NOT, reg(v.reg), reg(v.reg))
		return v, nil

	case Inc, Dec:
		return g.genIncDec(x)
	}
	return value{}, g.errf(x.Ln, "internal: unary %v", x.Op)
}

// step returns the ++/-- increment for a type (pointer stride or 1).
func step(t *obj.Type) int32 {
	if t.IsPointer() {
		return int32(t.Elem.Size())
	}
	return 1
}

func (g *gen) genIncDec(x *Unary) (value, error) {
	delta := step(x.X.Type())
	if x.Op == Dec {
		delta = -delta
	}
	// Register-promoted scalar: operate directly.
	if id, ok := x.X.(*Ident); ok && id.Sym.Reg >= 0 {
		sreg := reg(isa.Reg(id.Sym.Reg))
		r, err := g.allocInt(x.Ln)
		if err != nil {
			return value{}, err
		}
		if x.Postfix {
			g.inst(asm.MOVE, reg(r), sreg)
			g.inst(asm.ADDIU, sreg, sreg, imm(delta))
		} else {
			g.inst(asm.ADDIU, sreg, sreg, imm(delta))
			g.inst(asm.MOVE, reg(r), sreg)
		}
		return value{reg: r}, nil
	}
	// Memory-resident lvalue.
	addr, err := g.genAddrOfLvalue(x.X)
	if err != nil {
		return value{}, err
	}
	t := x.X.Type()
	if t.Kind == obj.KindFloat {
		return value{}, g.errf(x.Ln, "++/-- on float is not supported")
	}
	val, err := g.allocInt(x.Ln)
	if err != nil {
		return value{}, err
	}
	at := asm.Mem(0, addr.reg)
	g.inst(loadOp(t), reg(val), at)
	if x.Postfix {
		tmp, err := g.allocInt(x.Ln)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.ADDIU, reg(tmp), reg(val), imm(delta))
		g.inst(storeOp(t), reg(tmp), at)
		delete(g.intBusy, tmp)
	} else {
		g.inst(asm.ADDIU, reg(val), reg(val), imm(delta))
		g.inst(storeOp(t), reg(val), at)
	}
	g.free(addr)
	return value{reg: val}, nil
}

// genAddrOfLvalue is genAddr, but routes *p through expression
// evaluation of p.
func (g *gen) genAddrOfLvalue(e Expr) (value, error) {
	return g.genAddr(e)
}

func (g *gen) genAssign(x *AssignExpr) (value, error) {
	// Register-promoted simple variable.
	if id, ok := x.LHS.(*Ident); ok && id.Sym.Reg >= 0 {
		rhs, err := g.genExpr(x.RHS)
		if err != nil {
			return value{}, err
		}
		rhs, err = g.convert(rhs, x.RHS.Type(), id.Sym.Ty, x.Ln)
		if err != nil {
			return value{}, err
		}
		sreg := reg(isa.Reg(id.Sym.Reg))
		if x.Op == Assign {
			g.inst(asm.MOVE, sreg, reg(rhs.reg))
			return rhs, nil
		}
		op, err := g.compoundOp(x.Op, x.Ln)
		if err != nil {
			return value{}, err
		}
		if err := g.applyIntOp(op, isa.Reg(id.Sym.Reg), isa.Reg(id.Sym.Reg), rhs.reg,
			x.LHS.Type(), x.RHS.Type(), x.Ln); err != nil {
			return value{}, err
		}
		g.inst(asm.MOVE, reg(rhs.reg), sreg)
		return rhs, nil
	}

	// Memory-resident lvalue: address, then value, then store.
	addr, err := g.genAddr(x.LHS)
	if err != nil {
		return value{}, err
	}
	rhs, err := g.genExpr(x.RHS)
	if err != nil {
		return value{}, err
	}
	lt := x.LHS.Type()
	rhs, err = g.convert(rhs, x.RHS.Type(), lt, x.Ln)
	if err != nil {
		return value{}, err
	}

	if x.Op != Assign {
		op, err := g.compoundOp(x.Op, x.Ln)
		if err != nil {
			return value{}, err
		}
		if lt.Kind == obj.KindFloat {
			cur, err := g.allocFlt(x.Ln)
			if err != nil {
				return value{}, err
			}
			at := asm.Mem(0, addr.reg)
			g.inst(asm.LS, freg(cur), at)
			g.inst(floatOps[op], freg(cur), freg(cur), freg(rhs.reg))
			g.inst(asm.SS, freg(cur), at)
			g.free(rhs)
			g.free(addr)
			return value{reg: cur, isFlt: true}, nil
		}
		cur, err := g.allocInt(x.Ln)
		if err != nil {
			return value{}, err
		}
		at := asm.Mem(0, addr.reg)
		g.inst(loadOp(lt), reg(cur), at)
		if err := g.applyIntOp(op, cur, cur, rhs.reg, lt, x.RHS.Type(), x.Ln); err != nil {
			return value{}, err
		}
		g.inst(storeOp(lt), reg(cur), at)
		g.free(rhs)
		g.free(addr)
		return value{reg: cur}, nil
	}

	g.inst(storeOp(lt), valueReg(rhs), asm.Mem(0, addr.reg))
	g.free(addr)
	return rhs, nil
}

// floatOps maps an integer arithmetic mnemonic to its float form.
var floatOps = map[asm.Mnemonic]asm.Mnemonic{
	asm.ADD: asm.ADDS, asm.SUB: asm.SUBS, asm.MUL: asm.MULS, asm.DIV: asm.DIVS,
}

func (g *gen) compoundOp(k TokKind, line int) (asm.Mnemonic, error) {
	switch k {
	case AddAssign:
		return asm.ADD, nil
	case SubAssign:
		return asm.SUB, nil
	case MulAssign:
		return asm.MUL, nil
	case DivAssign:
		return asm.DIV, nil
	}
	return 0, g.errf(line, "internal: compound op %v", k)
}

// applyIntOp emits rd = ra op rb for integer/pointer compound
// assignment, scaling pointer arithmetic.
func (g *gen) applyIntOp(op asm.Mnemonic, rd, ra, rb isa.Reg, lt, rt *obj.Type, line int) error {
	if lt.IsPointer() && (op == asm.ADD || op == asm.SUB) {
		sz := lt.Elem.Size()
		if sz != 1 {
			if sz&(sz-1) == 0 {
				g.inst(asm.SLL, reg(rb), reg(rb), imm(log2i(sz)))
			} else {
				tmp, err := g.allocInt(line)
				if err != nil {
					return err
				}
				g.inst(asm.LI, reg(tmp), imm(sz))
				g.inst(asm.MUL, reg(rb), reg(rb), reg(tmp))
				delete(g.intBusy, tmp)
			}
		}
	}
	if op == asm.DIV {
		g.inst(asm.DIV, reg(ra), reg(rb))
		g.inst(asm.MFLO, reg(rd))
		return nil
	}
	g.inst(op, reg(rd), reg(ra), reg(rb))
	return nil
}
