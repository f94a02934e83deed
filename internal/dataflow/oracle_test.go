package dataflow_test

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"

	"delinq/internal/bench"
	"delinq/internal/cfg"
	"delinq/internal/core"
	"delinq/internal/dataflow"
	"delinq/internal/disasm"
	"delinq/internal/isa"
	"delinq/internal/progen"
)

// The reference below solves reaching definitions one instruction at a
// time, sharing no code with AnalyzeMachine's block-level gen/kill
// sets: every instruction has its own IN and OUT set of definition IDs,
// each definition kills the other definitions of its register in the
// order the instruction makes them, and the sets are iterated to a
// fixed point over instruction-level successor edges.

type refSet []uint64

func (s refSet) add(i int) { s[i/64] |= 1 << (i % 64) }
func (s refSet) del(i int) { s[i/64] &^= 1 << (i % 64) }

// refDef is one definition as the reference enumerates it.
type refDef struct {
	kind dataflow.DefKind
	inst int
	reg  isa.Reg
}

// refDefs enumerates fn's definitions in ID order: an entry definition
// of each register 1–31, then per instruction its own definitions
// followed by the call clobbers.
func refDefs(fn *disasm.Func, m isa.Machine) (defs []refDef, ofInst [][]int) {
	for reg := isa.Reg(1); reg < 32; reg++ {
		defs = append(defs, refDef{dataflow.DefEntry, -1, reg})
	}
	ofInst = make([][]int, len(fn.Insts))
	for i, in := range fn.Insts {
		for _, reg := range in.Defs() {
			if reg != isa.Zero {
				ofInst[i] = append(ofInst[i], len(defs))
				defs = append(defs, refDef{dataflow.DefInst, i, reg})
			}
		}
		if in.IsCall() || in.IsSyscall() {
			for _, reg := range m.CallClobbered() {
				ofInst[i] = append(ofInst[i], len(defs))
				defs = append(defs, refDef{dataflow.DefCall, i, reg})
			}
		}
	}
	return defs, ofInst
}

// referenceIn returns the set of definitions reaching each instruction.
func referenceIn(g *cfg.Graph, defs []refDef, ofInst [][]int) []refSet {
	n := len(g.Fn.Insts)
	words := (len(defs) + 63) / 64
	in := make([]refSet, n)
	out := make([]refSet, n)
	preds := make([][]int, n)
	var ofReg [32][]int
	for id, d := range defs {
		ofReg[d.reg] = append(ofReg[d.reg], id)
	}
	for i := 0; i < n; i++ {
		in[i] = make(refSet, words)
		out[i] = make(refSet, words)
		b := g.BlockOf[i]
		if i+1 < b.End {
			preds[i+1] = append(preds[i+1], i)
			continue
		}
		for _, s := range b.Succs {
			preds[s.Start] = append(preds[s.Start], i)
		}
	}
	next := make(refSet, words)
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			clear(next)
			if i == 0 {
				for id, d := range defs {
					if d.kind == dataflow.DefEntry {
						next.add(id)
					}
				}
			}
			for _, p := range preds[i] {
				for w := range next {
					next[w] |= out[p][w]
				}
			}
			copy(in[i], next)
			for _, id := range ofInst[i] {
				for _, other := range ofReg[defs[id].reg] {
					next.del(other)
				}
				next.add(id)
			}
			if !slices.Equal(next, out[i]) {
				changed = true
				copy(out[i], next)
			}
		}
	}
	return in
}

// ids lists the IDs of defs.
func ids(defs []dataflow.Def) []int {
	var out []int
	for _, d := range defs {
		out = append(out, int(d.ID))
	}
	return out
}

// checkAgainstReference compares ReachingAt at every instruction and
// every register 1–31 with the reference, returning the first few
// disagreements. A second, fresh Result is first queried at the last
// instruction for registers 31 down to 1, so its registers are solved
// in another order; its answers must be the first one's.
func checkAgainstReference(fn *disasm.Func, m isa.Machine) []string {
	g := cfg.Build(fn)
	r := dataflow.AnalyzeMachine(g, m)
	defs, ofInst := refDefs(fn, m)
	var bad []string
	if len(r.Defs) != len(defs) {
		return []string{fmt.Sprintf("%s: %d defs, reference %d", fn.Name, len(r.Defs), len(defs))}
	}
	for id, d := range r.Defs {
		if want := defs[id]; int(d.ID) != id || d.Kind != want.kind || int(d.Inst) != want.inst || d.Reg != want.reg {
			return []string{fmt.Sprintf("%s: def %d = %+v, reference %+v", fn.Name, id, d, want)}
		}
	}
	in := referenceIn(g, defs, ofInst)
	fresh := dataflow.AnalyzeMachine(g, m)
	for reg := isa.Reg(31); reg >= 1; reg-- {
		fresh.ReachingAt(len(fn.Insts)-1, reg, nil)
	}
	var want []int
	var got, again []dataflow.Def
	for i := range fn.Insts {
		for reg := isa.Reg(1); reg < 32; reg++ {
			want = want[:0]
			for w, word := range in[i] {
				for rest := word; rest != 0; rest &= rest - 1 {
					if id := w*64 + bits.TrailingZeros64(rest); defs[id].reg == reg {
						want = append(want, id)
					}
				}
			}
			got = r.ReachingAt(i, reg, got[:0])
			again = fresh.ReachingAt(i, reg, again[:0])
			if !slices.Equal(ids(got), want) && len(bad) < 5 {
				bad = append(bad, fmt.Sprintf("%s inst %d reg %d: ReachingAt %v, reference %v", fn.Name, i, reg, ids(got), want))
			}
			if !slices.Equal(again, got) && len(bad) < 5 {
				bad = append(bad, fmt.Sprintf("%s inst %d reg %d: ReachingAt %v after solving 31 down to 1, %v otherwise", fn.Name, i, reg, ids(again), ids(got)))
			}
		}
	}
	return bad
}

// TestReachingAtMatchesReference runs the reference over every
// benchmark at -O0 and -O and over 20 generated 120-statement programs,
// on both machine descriptions.
func TestReachingAtMatchesReference(t *testing.T) {
	start := time.Now()
	type program struct {
		name, src string
		optimize  bool
	}
	var progs []program
	for _, b := range bench.All() {
		progs = append(progs, program{b.Name, b.Source, false}, program{b.Name, b.Source, true})
	}
	conf := progen.DefaultConfig()
	conf.Statements = 120
	gen := progen.New(conf)
	for seed := int64(1); seed <= 20; seed++ {
		progs = append(progs, program{fmt.Sprintf("progen-%d", seed), gen.Program(seed), seed%2 == 0})
	}
	funcs := 0
	for _, isaName := range []string{"mips", "arm"} {
		m, err := isa.ByName(isaName)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range progs {
			img, err := core.BuildSourceISA(p.src, p.optimize, isaName)
			if err != nil {
				t.Fatalf("%s -O=%t %s: %v", p.name, p.optimize, isaName, err)
			}
			prog, err := disasm.Disassemble(img)
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range prog.Funcs {
				funcs++
				for _, msg := range checkAgainstReference(fn, m) {
					t.Errorf("%s -O=%t %s: %s", p.name, p.optimize, isaName, msg)
				}
			}
		}
	}
	t.Logf("%d programs, %d functions checked in %v", 2*len(progs), funcs, time.Since(start))
}
