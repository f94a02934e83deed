// Package pattern builds the paper's address patterns: symbolic
// expressions summarising the data-flow subgraph that computes the
// address operand of each load instruction (Section 5.1).
//
// The grammar is
//
//	AP → AP(AP) | AP*AP | AP+AP | AP−AP | AP<<AP | AP>>AP | const | BR
//	BR → gp | sp | reg_param | reg_ret
//
// where parentheses denote memory dereferencing. Intermediate registers
// are eliminated by substituting their reaching definitions; a load can
// have several address patterns when several definitions reach it along
// different control paths, and a definition that (transitively) depends
// on itself marks the pattern as recurrent.
package pattern

import (
	"fmt"

	"delinq/internal/isa"
)

// Kind identifies an expression node.
type Kind int

const (
	Const   Kind = iota // integer literal
	GP                  // the global pointer basic register
	SP                  // the stack pointer (and frame pointer) basic register
	Param               // an argument register live-in at function entry
	Ret                 // a value produced by a function call ($v0/$v1)
	Unknown             // a value outside the grammar (entry temp, logic op, …)
	Add
	Sub
	Mul
	Shl
	Shr
	Deref // memory dereference of the single child L
	Rec   // recurrence marker: the sub-expression depends on itself
)

// Expr is one address-pattern node. Leaves use Val (Const) or Reg
// (Param/Ret); interior nodes use L and R (Deref and Rec use L only).
type Expr struct {
	Kind Kind
	Val  int32
	Reg  isa.Reg
	L, R *Expr
}

// Shared leaves.
var (
	gpLeaf      = &Expr{Kind: GP}
	spLeaf      = &Expr{Kind: SP}
	unknownLeaf = &Expr{Kind: Unknown}
	recLeaf     = &Expr{Kind: Rec}
	zeroConst   = &Expr{Kind: Const, Val: 0}
)

// NewConst returns a constant leaf.
func NewConst(v int32) *Expr {
	if v == 0 {
		return zeroConst
	}
	return &Expr{Kind: Const, Val: v}
}

func binary(k Kind, l, r *Expr) *Expr {
	// Constant folding keeps patterns canonical: lui/ori pairs become a
	// single const, and x+0 collapses.
	if l.Kind == Const && r.Kind == Const {
		switch k {
		case Add:
			return NewConst(l.Val + r.Val)
		case Sub:
			return NewConst(l.Val - r.Val)
		case Mul:
			return NewConst(l.Val * r.Val)
		case Shl:
			return NewConst(l.Val << (uint(r.Val) & 31))
		case Shr:
			return NewConst(int32(uint32(l.Val) >> (uint(r.Val) & 31)))
		}
	}
	if k == Add {
		if l.Kind == Const && l.Val == 0 {
			return r
		}
		if r.Kind == Const && r.Val == 0 {
			return l
		}
		// Reassociate (x+c1)+c2 so chained displacements stay canonical.
		if r.Kind == Const && l.Kind == Add && l.R.Kind == Const {
			return binary(Add, l.L, NewConst(l.R.Val+r.Val))
		}
		if l.Kind == Const && r.Kind == Add && r.R.Kind == Const {
			return binary(Add, r.L, NewConst(r.R.Val+l.Val))
		}
	}
	if k == Sub && r.Kind == Const && r.Val == 0 {
		return l
	}
	return &Expr{Kind: k, L: l, R: r}
}

// NewDeref wraps e in a memory dereference.
func NewDeref(e *Expr) *Expr { return &Expr{Kind: Deref, L: e} }

// String renders the pattern in the paper's notation: dereferencing as
// parentheses, with the common "offset(base)" special case, e.g.
// "45(sp)+30" for the contents of sp+45 plus the constant 30.
func (e *Expr) String() string {
	switch e.Kind {
	case Const:
		return fmt.Sprint(e.Val)
	case GP:
		return "gp"
	case SP:
		return "sp"
	case Param:
		return "param:" + isa.RegName(e.Reg)[1:]
	case Ret:
		return "ret:" + isa.RegName(e.Reg)[1:]
	case Unknown:
		return "?"
	case Rec:
		if e.L != nil {
			return "rec:" + e.L.String()
		}
		return "rec"
	case Deref:
		if e.L.Kind == Add && e.L.R.Kind == Const {
			return fmt.Sprintf("%d(%s)", e.L.R.Val, e.L.L)
		}
		if e.L.Kind == Add && e.L.L.Kind == Const {
			return fmt.Sprintf("%d(%s)", e.L.L.Val, e.L.R)
		}
		return "(" + e.L.String() + ")"
	case Add:
		return e.L.String() + "+" + e.R.String()
	case Sub:
		return e.L.String() + "-" + e.R.String()
	case Mul:
		return wrap(e.L) + "*" + wrap(e.R)
	case Shl:
		return wrap(e.L) + "<<" + wrap(e.R)
	case Shr:
		return wrap(e.L) + ">>" + wrap(e.R)
	}
	return "?"
}

func wrap(e *Expr) string {
	switch e.Kind {
	case Add, Sub, Shl, Shr:
		return "[" + e.String() + "]"
	}
	return e.String()
}

// Walk visits every node of the expression tree.
func (e *Expr) Walk(f func(*Expr)) {
	f(e)
	if e.L != nil {
		e.L.Walk(f)
	}
	if e.R != nil {
		e.R.Walk(f)
	}
}

// CountSP returns the number of occurrences of the stack pointer.
func (e *Expr) CountSP() int { return e.count(SP) }

// CountGP returns the number of occurrences of the global pointer.
func (e *Expr) CountGP() int { return e.count(GP) }

// CountParam returns occurrences of argument-register leaves.
func (e *Expr) CountParam() int { return e.count(Param) }

// CountRet returns occurrences of call-result leaves.
func (e *Expr) CountRet() int { return e.count(Ret) }

func (e *Expr) count(k Kind) int {
	n := 0
	e.Walk(func(x *Expr) {
		if x.Kind == k {
			n++
		}
	})
	return n
}

// HasMulOrShift reports whether the address computation contains a
// multiplication or shift (decision criterion H2).
func (e *Expr) HasMulOrShift() bool {
	found := false
	e.Walk(func(x *Expr) {
		if x.Kind == Mul || x.Kind == Shl || x.Kind == Shr {
			found = true
		}
	})
	return found
}

// MaxDeref returns the maximum dereference nesting depth (criterion H3).
func (e *Expr) MaxDeref() int {
	switch e.Kind {
	case Deref:
		return 1 + e.L.MaxDeref()
	case Const, GP, SP, Param, Ret, Unknown:
		return 0
	}
	d := 0
	if e.L != nil {
		d = e.L.MaxDeref()
	}
	if e.R != nil {
		if r := e.R.MaxDeref(); r > d {
			d = r
		}
	}
	return d
}

// HasRecurrence reports whether the pattern contains a recurrence marker
// (criterion H4).
func (e *Expr) HasRecurrence() bool {
	found := false
	e.Walk(func(x *Expr) {
		if x.Kind == Rec {
			found = true
		}
	})
	return found
}

// Size returns the node count, used to bound expansion.
func (e *Expr) Size() int {
	n := 0
	e.Walk(func(*Expr) { n++ })
	return n
}

// Equal reports structural equality.
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil || e.Kind != o.Kind || e.Val != o.Val || e.Reg != o.Reg {
		return false
	}
	if (e.L == nil) != (o.L == nil) || (e.R == nil) != (o.R == nil) {
		return false
	}
	if e.L != nil && !e.L.Equal(o.L) {
		return false
	}
	if e.R != nil && !e.R.Equal(o.R) {
		return false
	}
	return true
}

// appendNew appends e to list unless an Equal pattern is already there,
// so lists keep first-seen order without duplicates.
func appendNew(list []*Expr, e *Expr) []*Expr {
	for _, have := range list {
		if have.Equal(e) {
			return list
		}
	}
	return append(list, e)
}
