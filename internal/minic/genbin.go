package minic

import (
	"delinq/internal/asm"
	"delinq/internal/isa"
	"delinq/internal/obj"
)

func (g *gen) genBinary(x *Binary) (value, error) {
	switch x.Op {
	case AndAnd, OrOr:
		return g.genLogical(x)
	}

	lv, err := g.genExpr(x.X)
	if err != nil {
		return value{}, err
	}
	rv, err := g.genExpr(x.Y)
	if err != nil {
		return value{}, err
	}

	lt, rt := decay(x.X.Type()), decay(x.Y.Type())

	// Promote to float when either side is float (for arithmetic and
	// comparisons).
	if (lt.Kind == obj.KindFloat || rt.Kind == obj.KindFloat) &&
		!lt.IsPointer() && !rt.IsPointer() {
		if lv, err = g.convert(lv, lt, obj.TypeFloat, x.Ln); err != nil {
			return value{}, err
		}
		if rv, err = g.convert(rv, rt, obj.TypeFloat, x.Ln); err != nil {
			return value{}, err
		}
		return g.genFloatBinary(x, lv, rv)
	}

	a, b := reg(lv.reg), reg(rv.reg)
	switch x.Op {
	case Plus, Minus:
		op := asm.ADD
		if x.Op == Minus {
			op = asm.SUB
		}
		switch {
		case lt.IsPointer() && isIntegral(rt):
			g.scaleIndex(rv.reg, lt.Elem.Size(), x.Ln)
		case x.Op == Plus && isIntegral(lt) && rt.IsPointer():
			g.scaleIndex(lv.reg, rt.Elem.Size(), x.Ln)
		case x.Op == Minus && lt.IsPointer() && rt.IsPointer():
			g.inst(asm.SUB, a, a, b)
			sz := lt.Elem.Size()
			if sz > 1 {
				if sz&(sz-1) == 0 {
					g.inst(asm.SRA, a, a, imm(log2i(sz)))
				} else {
					g.inst(asm.LI, b, imm(sz))
					g.inst(asm.DIV, a, b)
					g.inst(asm.MFLO, a)
				}
			}
			g.free(rv)
			return lv, nil
		}
		g.inst(op, a, a, b)
	case Star:
		g.inst(asm.MUL, a, a, b)
	case Slash:
		g.inst(asm.DIV, a, b)
		g.inst(asm.MFLO, a)
	case Percent:
		g.inst(asm.DIV, a, b)
		g.inst(asm.MFHI, a)
	case Amp:
		g.inst(asm.AND, a, a, b)
	case Pipe:
		g.inst(asm.OR, a, a, b)
	case Caret:
		g.inst(asm.XOR, a, a, b)
	case Shl:
		g.inst(asm.SLLV, a, a, b)
	case Shr:
		g.inst(asm.SRAV, a, a, b)
	case Lt:
		g.inst(asm.SLT, a, a, b)
	case Gt:
		g.inst(asm.SLT, a, b, a)
	case Le:
		g.inst(asm.SLT, a, b, a)
		g.inst(asm.XORI, a, a, imm(1))
	case Ge:
		g.inst(asm.SLT, a, a, b)
		g.inst(asm.XORI, a, a, imm(1))
	case Eq:
		g.inst(asm.XOR, a, a, b)
		g.inst(asm.SLTIU, a, a, imm(1))
	case Ne:
		g.inst(asm.XOR, a, a, b)
		g.inst(asm.SLTU, a, rZero, a)
	default:
		return value{}, g.errf(x.Ln, "internal: binary %v", x.Op)
	}
	g.free(rv)
	return lv, nil
}

// scaleIndex multiplies reg by an element size in place.
func (g *gen) scaleIndex(r isa.Reg, size, line int) {
	switch {
	case size == 1:
	case size&(size-1) == 0:
		g.inst(asm.SLL, reg(r), reg(r), imm(log2i(size)))
	default:
		g.inst(asm.LI, rAT, imm(size))
		g.inst(asm.MUL, reg(r), reg(r), rAT)
	}
}

// genFloatBinary handles float arithmetic and comparisons; both operands
// are float registers.
func (g *gen) genFloatBinary(x *Binary, lv, rv value) (value, error) {
	a, b := freg(lv.reg), freg(rv.reg)
	switch x.Op {
	case Plus:
		g.inst(asm.ADDS, a, a, b)
	case Minus:
		g.inst(asm.SUBS, a, a, b)
	case Star:
		g.inst(asm.MULS, a, a, b)
	case Slash:
		g.inst(asm.DIVS, a, a, b)
	case Eq, Ne, Lt, Gt, Le, Ge:
		r, err := g.allocInt(x.Ln)
		if err != nil {
			return value{}, err
		}
		set := g.newLabel("fcset")
		switch x.Op {
		case Eq, Ne:
			g.inst(asm.CEQS, a, b)
		case Lt:
			g.inst(asm.CLTS, a, b)
		case Le:
			g.inst(asm.CLES, a, b)
		case Gt:
			g.inst(asm.CLTS, b, a)
		case Ge:
			g.inst(asm.CLES, b, a)
		}
		g.inst(asm.LI, reg(r), imm(1))
		g.inst(asm.BC1T, asm.Sym(set))
		g.inst(asm.LI, reg(r), imm(0))
		g.p.Label(set)
		if x.Op == Ne {
			g.inst(asm.XORI, reg(r), reg(r), imm(1))
		}
		g.free(lv)
		g.free(rv)
		return value{reg: r}, nil
	default:
		return value{}, g.errf(x.Ln, "float operator %v not supported", x.Op)
	}
	g.free(rv)
	return lv, nil
}

// genLogical emits short-circuit && and || producing 0/1.
func (g *gen) genLogical(x *Binary) (value, error) {
	out, err := g.allocInt(x.Ln)
	if err != nil {
		return value{}, err
	}
	end := g.newLabel("sc")
	lv, err := g.genExpr(x.X)
	if err != nil {
		return value{}, err
	}
	if lv.isFlt {
		if lv, err = g.convert(lv, obj.TypeFloat, obj.TypeInt, x.Ln); err != nil {
			return value{}, err
		}
	}
	g.inst(asm.SLTU, reg(out), rZero, reg(lv.reg))
	g.free(lv)
	if x.Op == AndAnd {
		g.inst(asm.BEQZ, reg(out), asm.Sym(end))
	} else {
		g.inst(asm.BNEZ, reg(out), asm.Sym(end))
	}
	rv, err := g.genExpr(x.Y)
	if err != nil {
		return value{}, err
	}
	if rv.isFlt {
		if rv, err = g.convert(rv, obj.TypeFloat, obj.TypeInt, x.Ln); err != nil {
			return value{}, err
		}
	}
	g.inst(asm.SLTU, reg(out), rZero, reg(rv.reg))
	g.free(rv)
	g.p.Label(end)
	return value{reg: out}, nil
}

// genCall evaluates arguments, spills live temporaries, and invokes the
// target (user function or runtime builtin).
func (g *gen) genCall(x *Call) (value, error) {
	if len(x.Args) > 4 {
		return value{}, g.errf(x.Ln, "more than 4 arguments")
	}
	// Evaluate arguments into temporaries first.
	var vals []value
	for _, a := range x.Args {
		v, err := g.genExpr(a)
		if err != nil {
			return value{}, err
		}
		// Floats travel as raw bits in integer argument registers.
		if v.isFlt {
			r, err := g.allocInt(x.Ln)
			if err != nil {
				return value{}, err
			}
			g.inst(asm.MFC1, reg(r), freg(v.reg))
			g.free(v)
			v = value{reg: r}
		}
		vals = append(vals, v)
	}
	// Move into $a0-$a3 and release the temporaries so they are not
	// pointlessly saved across the call.
	for i, v := range vals {
		g.inst(asm.MOVE, reg(isa.A0+isa.Reg(i)), reg(v.reg))
		g.free(v)
	}
	restore, err := g.saveLiveTemps(x.Ln)
	if err != nil {
		return value{}, err
	}
	name := x.Name
	if x.Builtin != BNone {
		name = builtinLabels[x.Builtin]
	}
	g.inst(asm.JAL, asm.Sym(name))
	restore()

	if x.Type().Kind == obj.KindVoid {
		// Give the caller a dummy register so every expression yields a
		// value.
		r, err := g.allocInt(x.Ln)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.MOVE, reg(r), rZero)
		return value{reg: r}, nil
	}
	if x.Type().Kind == obj.KindFloat {
		fr, err := g.allocFlt(x.Ln)
		if err != nil {
			return value{}, err
		}
		g.inst(asm.MOVS, freg(fr), fF0)
		return value{reg: fr, isFlt: true}, nil
	}
	r, err := g.allocInt(x.Ln)
	if err != nil {
		return value{}, err
	}
	g.inst(asm.MOVE, reg(r), rV0)
	return value{reg: r}, nil
}
