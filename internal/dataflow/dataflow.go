// Package dataflow computes reaching definitions over the integer
// register file of one function — the analysis that lets the
// address-pattern builder substitute each register use with the
// expressions that may have produced its value.
//
// Three definition kinds exist: ordinary instruction definitions, a
// synthetic entry definition per register (the value the register had
// when the function was entered), and synthetic call-clobber definitions
// for every caller-saved register at each call site.
package dataflow

import (
	"math/bits"

	"delinq/internal/cfg"
	"delinq/internal/isa"
)

// DefKind discriminates definition sites.
type DefKind int

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
	ID   int
	Kind DefKind
	Inst int // instruction index; -1 for DefEntry
	Reg  isa.Reg
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)   { b[i/64] |= 1 << (i % 64) }
func (b bitset) orWith(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			changed = true
			b[i] = n
		}
	}
	return changed
}

// Result holds the reaching-definition sets of one function.
type Result struct {
	Graph *cfg.Graph
	Defs  []Def
	// regDefs[reg] is the set of all definitions of reg.
	regDefs [32]bitset
	// The definitions made by instruction i are Defs[firstDef[i]:
	// firstDef[i+1]]: IDs are assigned in instruction order.
	firstDef []int
	// in[b] is the set of definition IDs reaching the entry of block b.
	in []bitset
}

// AnalyzeMachine runs reaching definitions to a fixed point, taking
// the call-clobbered register set from m.
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
		firstDef: make([]int, len(insts)+1),
	}
	addDef := func(kind DefKind, inst int, reg isa.Reg) {
		r.Defs = append(r.Defs, Def{ID: len(r.Defs), Kind: kind, Inst: inst, Reg: reg})
	}

	// Entry definitions for every register except $zero: IDs 0–30.
	for reg := isa.Reg(1); reg < 32; reg++ {
		addDef(DefEntry, -1, reg)
	}
	// Instruction and call-clobber definitions.
	for i, in := range insts {
		r.firstDef[i] = len(r.Defs)
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
	r.firstDef[len(insts)] = len(r.Defs)

	n := len(r.Defs)
	words := (n + 63) / 64
	for _, d := range r.Defs {
		if r.regDefs[d.Reg] == nil {
			r.regDefs[d.Reg] = newBitset(n)
		}
		r.regDefs[d.Reg].set(d.ID)
	}

	// in outlives the analysis; out, gen and kill share one scratch
	// backing array.
	nb := len(g.Blocks)
	r.in = make([]bitset, nb)
	out := make([]bitset, nb)
	gen := make([]bitset, nb)
	kill := make([]bitset, nb)
	scratch := make([]uint64, 3*nb*words)
	for b := 0; b < nb; b++ {
		r.in[b] = newBitset(n)
		out[b], scratch = scratch[:words:words], scratch[words:]
		gen[b], scratch = scratch[:words:words], scratch[words:]
		kill[b], scratch = scratch[:words:words], scratch[words:]
	}

	// Per-block gen/kill. A definition kills every other definition of
	// its register, so a block kills all definitions of each register
	// it defines and generates only the last definition of each.
	var last [32]int
	for _, b := range g.Blocks {
		var defined uint32
		for id := r.firstDef[b.Start]; id < r.firstDef[b.End]; id++ {
			reg := r.Defs[id].Reg
			last[reg] = id
			defined |= 1 << reg
		}
		for regs := defined; regs != 0; regs &= regs - 1 {
			reg := bits.TrailingZeros32(regs)
			gen[b.Index].set(last[reg])
			kill[b.Index].orWith(r.regDefs[reg])
		}
	}

	// Entry block starts with all entry defs.
	if nb > 0 {
		for id := 0; id < 31; id++ {
			r.in[0].set(id)
		}
	}

	// Iterate to fixed point over reverse postorder.
	order := g.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			bi := b.Index
			in := r.in[bi]
			for _, p := range b.Preds {
				if in.orWith(out[p.Index]) {
					changed = true
				}
			}
			// out = gen | (in &^ kill). in only grows, so out does too.
			o, gb, kb := out[bi], gen[bi], kill[bi]
			for i := range o {
				if v := gb[i] | in[i]&^kb[i]; v != o[i] {
					o[i] = v
					changed = true
				}
			}
		}
	}
	return r
}

// ReachingAt returns the definitions of reg that may reach instruction
// index inst (i.e. the values reg may hold immediately before inst
// executes), in ID order.
func (r *Result) ReachingAt(inst int, reg isa.Reg) []Def {
	if reg == isa.Zero {
		return nil
	}
	b := r.Graph.BlockOf[inst]
	// Scan backwards within the block for a local definition.
	for i := inst - 1; i >= b.Start; i-- {
		var local []Def
		for _, d := range r.Defs[r.firstDef[i]:r.firstDef[i+1]] {
			if d.Reg == reg {
				local = append(local, d)
			}
		}
		if len(local) > 0 {
			return local
		}
	}
	// Fall back to the block-entry set.
	var defs []Def
	of := r.regDefs[reg]
	for w, word := range r.in[b.Index] {
		for m := word & of[w]; m != 0; m &= m - 1 {
			defs = append(defs, r.Defs[w*64+bits.TrailingZeros64(m)])
		}
	}
	return defs
}
