// Package dataflow computes reaching definitions over the integer
// register file of one function — the analysis that lets the
// address-pattern builder substitute each register use with the
// expressions that may have produced its value.
//
// Three definition kinds exist: ordinary instruction definitions, a
// synthetic entry definition per register (the value the register had
// when the function was entered), and synthetic call-clobber definitions
// for every caller-saved register at each call site.
//
// A definition kills only the definitions of its own register, so the
// analysis is 31 independent problems, one per register, each solved
// the first time a query needs it.
package dataflow

import (
	"math/bits"
	"slices"

	"delinq/internal/cfg"
	"delinq/internal/isa"
)

// DefKind discriminates definition sites.
type DefKind uint8

const (
	// DefInst is a definition by an ordinary instruction.
	DefInst DefKind = iota
	// DefEntry is the register's value at function entry.
	DefEntry
	// DefCall is a clobber by a call instruction (jal/jalr) or syscall.
	DefCall
)

// Def is one definition site of one register.
type Def struct {
	ID   int32
	Inst int32 // instruction index; -1 for DefEntry
	Kind DefKind
	Reg  isa.Reg
}

// Result holds the reaching definitions of one function. It solves a
// register's block-entry sets on the first query that needs them, so
// it is not safe for concurrent use.
type Result struct {
	Graph *cfg.Graph
	Defs  []Def
	// The definitions made by instruction i are Defs[firstDef[i]:
	// firstDef[i+1]]: IDs are assigned in instruction order.
	firstDef []int32
	// The IDs of register r's definitions, ascending, are
	// byReg[regOff[r]:regOff[r+1]]; the entry definition comes first.
	byReg  []int32
	regOff [33]int32
	// in[r], once solved, holds a row of ⌈|D(r)|/64⌉ words per block,
	// where D(r) is r's definitions: bit j of block b's row says
	// whether r's j-th definition reaches b's entry.
	in [32][]uint64
	// order and last are shared by every register's solve: the blocks
	// in reverse postorder, and per block the position in r's
	// definitions of the last one the block makes (-1 for none).
	order []*cfg.Block
	last  []int32
}

// AnalyzeMachine enumerates the definitions of g's function, taking
// the call-clobbered register set from m. Reaching definitions are
// solved per register by ReachingAt.
func AnalyzeMachine(g *cfg.Graph, m isa.Machine) *Result {
	callClobbered := m.CallClobbered()
	insts := g.Fn.Insts
	calls := 0
	for _, in := range insts {
		if in.IsCall() || in.IsSyscall() {
			calls++
		}
	}
	r := &Result{
		Graph:    g,
		Defs:     make([]Def, 0, 31+len(insts)+calls*len(callClobbered)),
		firstDef: make([]int32, len(insts)+1),
	}
	addDef := func(kind DefKind, inst int, reg isa.Reg) {
		r.Defs = append(r.Defs, Def{ID: int32(len(r.Defs)), Kind: kind, Inst: int32(inst), Reg: reg})
		r.regOff[reg+1]++
	}

	// Entry definitions for every register except $zero: IDs 0–30.
	for reg := isa.Reg(1); reg < 32; reg++ {
		addDef(DefEntry, -1, reg)
	}
	// Instruction and call-clobber definitions.
	for i, in := range insts {
		r.firstDef[i] = int32(len(r.Defs))
		for _, reg := range in.Defs() {
			if reg != isa.Zero {
				addDef(DefInst, i, reg)
			}
		}
		if in.IsCall() || in.IsSyscall() {
			for _, reg := range callClobbered {
				addDef(DefCall, i, reg)
			}
		}
	}
	r.firstDef[len(insts)] = int32(len(r.Defs))

	// regOff[r+1] has counted r's definitions: turn the counts into
	// offsets and place every ID.
	for reg := 1; reg < len(r.regOff); reg++ {
		r.regOff[reg] += r.regOff[reg-1]
	}
	r.byReg = make([]int32, len(r.Defs))
	next := r.regOff
	for _, d := range r.Defs {
		r.byReg[next[d.Reg]] = d.ID
		next[d.Reg]++
	}
	return r
}

// lastIn returns the position in ids of the last definition with an
// ID in [lo, hi), or -1 if there is none.
func lastIn(ids []int32, lo, hi int32) int {
	j, _ := slices.BinarySearch(ids, hi)
	if j == 0 || ids[j-1] < lo {
		return -1
	}
	return j - 1
}

// solve computes register reg's block-entry sets. Restricted to reg's
// definitions, a block that defines reg sends out only its last
// definition of reg, and any other block passes its entry set through,
// so in(b) is the union over b's predecessors p of {last(p)} or in(p).
// That is the whole-register-file fixpoint restricted to reg.
func (r *Result) solve(reg isa.Reg) []uint64 {
	g := r.Graph
	nb := len(g.Blocks)
	if r.order == nil {
		r.order = g.ReversePostorder()
		r.last = make([]int32, nb)
	}
	ids := r.byReg[r.regOff[reg]:r.regOff[reg+1]]
	for _, b := range g.Blocks {
		r.last[b.Index] = int32(lastIn(ids, r.firstDef[b.Start], r.firstDef[b.End]))
	}
	words := (len(ids) + 63) / 64
	in := make([]uint64, nb*words)
	in[0] = 1 // the entry block starts with reg's entry definition
	for changed := true; changed; {
		changed = false
		for _, b := range r.order {
			row := in[b.Index*words : (b.Index+1)*words]
			for _, p := range b.Preds {
				if l := r.last[p.Index]; l >= 0 {
					if bit := uint64(1) << (l % 64); row[l/64]&bit == 0 {
						row[l/64] |= bit
						changed = true
					}
					continue
				}
				for w, v := range in[p.Index*words : (p.Index+1)*words] {
					if row[w]|v != row[w] {
						row[w] |= v
						changed = true
					}
				}
			}
		}
	}
	r.in[reg] = in
	return in
}

// ReachingAt appends to buf the definitions of reg that may reach
// instruction index inst (i.e. the values reg may hold immediately
// before inst executes), in ID order, and returns the extended buffer.
func (r *Result) ReachingAt(inst int, reg isa.Reg, buf []Def) []Def {
	if reg == isa.Zero {
		return buf
	}
	b := r.Graph.BlockOf[inst]
	ids := r.byReg[r.regOff[reg]:r.regOff[reg+1]]
	// A definition earlier in the block hides the block-entry set: all
	// of reg's definitions by the last instruction that makes one.
	if j := lastIn(ids, r.firstDef[b.Start], r.firstDef[inst]); j >= 0 {
		i := r.Defs[ids[j]].Inst
		first := j
		for first > 0 && r.Defs[ids[first-1]].Inst == i {
			first--
		}
		for _, id := range ids[first : j+1] {
			buf = append(buf, r.Defs[id])
		}
		return buf
	}
	in := r.in[reg]
	if in == nil {
		in = r.solve(reg)
	}
	words := (len(ids) + 63) / 64
	for w, word := range in[b.Index*words : (b.Index+1)*words] {
		for m := word; m != 0; m &= m - 1 {
			buf = append(buf, r.Defs[ids[w*64+bits.TrailingZeros64(m)]])
		}
	}
	return buf
}
