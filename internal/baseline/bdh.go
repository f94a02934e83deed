package baseline

import (
	"delinq/internal/cfg"
	"delinq/internal/dataflow"
	"delinq/internal/disasm"
	"delinq/internal/isa"
	"delinq/internal/obj"
	"delinq/internal/pattern"
)

// ClassifyBDH assigns every load a BDH class using the image's symbol
// table (types of globals, stack-frame layouts, struct definitions) and
// register value propagation to detect pointer loads, following the
// static reconstruction described in Section 8.5.
func ClassifyBDH(prog *disasm.Program, loads []*pattern.Load) map[uint32]Class {
	out := map[uint32]Class{}
	// Pointer detection needs per-function dataflow; group loads by
	// function.
	byFn := map[*disasm.Func][]*pattern.Load{}
	for _, ld := range loads {
		byFn[ld.Func] = append(byFn[ld.Func], ld)
	}
	m := prog.Machine
	for fn, lds := range byFn {
		c := &bdhClassifier{
			prog: prog,
			fn:   fn,
			m:    m,
			df:   dataflow.AnalyzeMachine(cfg.Build(fn), m),
		}
		ptrs := c.pointerLoads()
		for _, ld := range lds {
			cls := c.classify(ld)
			if ptrs[ld.Index] {
				cls.Type = TypePointer
			}
			out[ld.PC] = cls
		}
	}
	return out
}

// BDH returns the possibly-delinquent set: loads whose class is in the
// union GAN ∪ HSN ∪ HFN ∪ HAN ∪ HFP ∪ HAP.
func BDH(prog *disasm.Program, loads []*pattern.Load) map[uint32]bool {
	classes := ClassifyBDH(prog, loads)
	out := map[uint32]bool{}
	for pc, cls := range classes {
		if IsDelinquentClass(cls) {
			out[pc] = true
		}
	}
	return out
}

type bdhClassifier struct {
	prog *disasm.Program
	fn   *disasm.Func
	m    isa.Machine
	df   *dataflow.Result
}

// classify determines region, kind and the statically visible part of
// the type axis from the load's address patterns and the symbol table.
func (c *bdhClassifier) classify(ld *pattern.Load) Class {
	cls := Class{Region: RegHeap, Kind: KindScalar, Type: TypeNonPointer}
	img := c.prog.Image

	best := false // whether a pattern produced a confident classification
	for _, p := range ld.Patterns {
		region, kind, ty, confident := c.classifyPattern(p, img)
		if confident && !best {
			cls.Region, cls.Kind, best = region, kind, true
			if ty == TypePointer {
				cls.Type = TypePointer
			}
		} else if ty == TypePointer {
			cls.Type = TypePointer
		}
	}
	return cls
}

// classifyPattern inspects one address pattern.
func (c *bdhClassifier) classifyPattern(p *pattern.Expr, img *obj.Image) (Region, RefKind, RefType, bool) {
	indexed := p.HasMulOrShift()

	base, off, hasConstOff := splitBase(p)

	switch {
	case base != nil && base.Kind == pattern.SP:
		kind, ty := c.stackKind(off, hasConstOff, indexed)
		return RegStack, kind, ty, true

	case base != nil && base.Kind == pattern.GP:
		kind, ty := c.globalKind(img, off, hasConstOff, indexed)
		return RegGlobal, kind, ty, true

	case base != nil && base.Kind == pattern.Const:
		// Absolute address: static data outside the gp window.
		kind, ty := c.globalKindAt(img, uint32(base.Val+off), indexed)
		return RegGlobal, kind, ty, true

	default:
		// Address derived from a loaded or propagated pointer: a heap
		// reference per the paper's value-propagation rule. Kind: field
		// when a displacement off the pointer (or indexing) is visible.
		kind := KindScalar
		elem := c.derefElemType(p, img)
		switch {
		case indexed:
			kind = KindArray
		case elem != nil && elem.Kind == obj.KindStruct:
			kind = KindField
		case hasConstOff && off != 0:
			kind = KindField
		}
		ty := TypeNonPointer
		if elem != nil {
			if ft := fieldTypeAt(elem, int(off)); ft != nil && ft.IsPointer() {
				ty = TypePointer
			}
		}
		return RegHeap, kind, ty, base != nil
	}
}

// splitBase decomposes a pattern into its base leaf and constant
// displacement, looking through one level of indexing arithmetic.
func splitBase(p *pattern.Expr) (base *pattern.Expr, off int32, hasOff bool) {
	switch p.Kind {
	case pattern.SP, pattern.GP, pattern.Param, pattern.Ret, pattern.Const,
		pattern.Unknown, pattern.Deref, pattern.Rec:
		return p, 0, true
	case pattern.Add:
		if p.R.Kind == pattern.Const {
			b, o, ok := splitBase(p.L)
			return b, o + p.R.Val, ok
		}
		if p.L.Kind == pattern.Const {
			b, o, ok := splitBase(p.R)
			return b, o + p.L.Val, ok
		}
		// base + index: prefer the side holding a basic-register leaf,
		// then a dereferenced pointer, then any resolvable side.
		lb, _, _ := splitBase(p.L)
		rb, _, _ := splitBase(p.R)
		for _, want := range []pattern.Kind{pattern.SP, pattern.GP, pattern.Deref,
			pattern.Rec, pattern.Ret, pattern.Param} {
			if lb != nil && lb.Kind == want {
				return lb, 0, false
			}
			if rb != nil && rb.Kind == want {
				return rb, 0, false
			}
		}
		if rb != nil {
			return rb, 0, false
		}
		return lb, 0, false
	case pattern.Sub:
		b, o, _ := splitBase(p.L)
		if p.R.Kind == pattern.Const {
			return b, o - p.R.Val, true
		}
		return b, 0, false
	case pattern.Mul, pattern.Shl, pattern.Shr:
		return nil, 0, false
	}
	return nil, 0, false
}

// derefElemType attempts to recover the element type behind the
// outermost dereference in the address pattern: for (sp+c) it is the
// local variable's pointee; for (gp+c) the global's pointee.
func (c *bdhClassifier) derefElemType(p *pattern.Expr, img *obj.Image) *obj.Type {
	var found *obj.Type
	p.Walk(func(x *pattern.Expr) {
		if found != nil || x.Kind != pattern.Deref {
			return
		}
		b, off, ok := splitBase(x.L)
		if !ok || b == nil {
			return
		}
		var t *obj.Type
		switch b.Kind {
		case pattern.SP:
			t = c.localTypeAt(off)
		case pattern.GP:
			t = c.globalTypeAt(img, img.GPValue+uint32(off))
		}
		if t != nil && t.IsPointer() {
			found = t.Elem
		}
	})
	return found
}

// localTypeAt returns the declared type of the stack slot at sp+off.
func (c *bdhClassifier) localTypeAt(off int32) *obj.Type {
	sym := c.fn.Sym
	if sym == nil {
		return nil
	}
	for i := range sym.Locals {
		l := &sym.Locals[i]
		sz := int32(l.Type.Size())
		if off >= l.Offset && off < l.Offset+sz {
			return l.Type
		}
	}
	return nil
}

// globalTypeAt returns the declared type of the data symbol at addr.
func (c *bdhClassifier) globalTypeAt(img *obj.Image, addr uint32) *obj.Type {
	if s, ok := img.DataSymAt(addr); ok {
		return s.Type
	}
	return nil
}

// stackKind classifies a stack access using the frame layout.
func (c *bdhClassifier) stackKind(off int32, hasOff bool, indexed bool) (RefKind, RefType) {
	if !hasOff {
		// Variable index into the frame: a local array.
		return KindArray, TypeNonPointer
	}
	t := c.localTypeAt(off)
	if t == nil {
		if indexed {
			return KindArray, TypeNonPointer
		}
		return KindScalar, TypeNonPointer
	}
	switch t.Kind {
	case obj.KindArray:
		return KindArray, elemRefType(t)
	case obj.KindStruct:
		return KindField, TypeNonPointer
	}
	if indexed {
		return KindArray, scalarRefType(t)
	}
	return KindScalar, scalarRefType(t)
}

// globalKind classifies a gp-relative access.
func (c *bdhClassifier) globalKind(img *obj.Image, off int32, hasOff bool, indexed bool) (RefKind, RefType) {
	if !hasOff {
		return KindArray, TypeNonPointer
	}
	return c.globalKindAt(img, img.GPValue+uint32(off), indexed)
}

func (c *bdhClassifier) globalKindAt(img *obj.Image, addr uint32, indexed bool) (RefKind, RefType) {
	t := c.globalTypeAt(img, addr)
	if t == nil {
		if indexed {
			return KindArray, TypeNonPointer
		}
		return KindScalar, TypeNonPointer
	}
	switch t.Kind {
	case obj.KindArray:
		return KindArray, elemRefType(t)
	case obj.KindStruct:
		if s, ok := img.DataSymAt(addr); ok {
			if f := t.FieldAt(int(addr - s.Addr)); f != nil {
				return KindField, scalarRefType(f.Type)
			}
		}
		return KindField, TypeNonPointer
	}
	if indexed {
		return KindArray, scalarRefType(t)
	}
	return KindScalar, scalarRefType(t)
}

func scalarRefType(t *obj.Type) RefType {
	if t.IsPointer() {
		return TypePointer
	}
	return TypeNonPointer
}

func elemRefType(arr *obj.Type) RefType {
	e := arr.Elem
	for e != nil && e.Kind == obj.KindArray {
		e = e.Elem
	}
	return scalarRefType(e)
}

func fieldTypeAt(st *obj.Type, off int) *obj.Type {
	if st == nil || st.Kind != obj.KindStruct {
		return nil
	}
	if f := st.FieldAt(off); f != nil {
		return f.Type
	}
	return nil
}

// pointerLoads finds loads whose value flows (through copies and
// arithmetic) into the address of a later memory access — the paper's
// "used as part of the address in a subsequent load" rule.
func (c *bdhClassifier) pointerLoads() map[int]bool {
	out := map[int]bool{}
	const maxDepth = 6
	gp, hasGP := c.m.GP()
	var chase func(reg isa.Reg, at, depth int, visiting map[int]bool)
	chase = func(reg isa.Reg, at, depth int, visiting map[int]bool) {
		if depth > maxDepth || reg == c.m.Zero() || reg == c.m.SP() ||
			(hasGP && reg == gp) || reg == c.m.FP() {
			return
		}
		for _, d := range c.df.ReachingAt(at, reg) {
			if d.Kind != dataflow.DefInst || visiting[d.ID] {
				continue
			}
			visiting[d.ID] = true
			in := c.fn.Insts[d.Inst]
			switch {
			case in.IsLoad():
				out[d.Inst] = true
			case in.Op == isa.ADDI || in.Op == isa.ADDIU || in.Op == isa.ORI:
				chase(in.Rs, d.Inst, depth+1, visiting)
			case in.Op == isa.ADD || in.Op == isa.ADDU || in.Op == isa.SUB ||
				in.Op == isa.SUBU || in.Op == isa.MUL:
				chase(in.Rs, d.Inst, depth+1, visiting)
				chase(in.Rt, d.Inst, depth+1, visiting)
			case in.Op == isa.SLL || in.Op == isa.SRL || in.Op == isa.SRA:
				chase(in.Rt, d.Inst, depth+1, visiting)
			case in.Op == isa.AMOV:
				chase(in.Rs, d.Inst, depth+1, visiting)
			case in.Op == isa.AADDI || in.Op == isa.AORRI ||
				in.Op == isa.ALSLI || in.Op == isa.ALSRI || in.Op == isa.AASRI:
				chase(in.Rd, d.Inst, depth+1, visiting)
			case in.Op == isa.AADD || in.Op == isa.ASUB || in.Op == isa.ARSB ||
				in.Op == isa.AMUL || in.Op == isa.ALSL || in.Op == isa.ALSR ||
				in.Op == isa.AASR:
				chase(in.Rd, d.Inst, depth+1, visiting)
				chase(in.Rt, d.Inst, depth+1, visiting)
			}
			delete(visiting, d.ID)
		}
	}
	for i, in := range c.fn.Insts {
		if in.IsLoad() || in.IsStore() {
			chase(in.Rs, i, 0, map[int]bool{})
		}
	}
	return out
}
