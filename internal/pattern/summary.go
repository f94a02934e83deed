// Interprocedural address patterns: bounded per-function summaries over
// the call graph, in two serial passes. Phase 1 walks the strongly
// connected components callee-first and records, per function, the
// address patterns of its return value, keeping the function's reaching
// definitions so that one analysis builds them once per function.
// Phase 2 walks callers-first, propagating the argument patterns that
// arrive at every direct call site, and rebuilds each function's load
// patterns with both directions resolved: a Ret leaf becomes the
// callee's return patterns instantiated at the call site, and a Param
// leaf becomes the union of the caller-side argument patterns.
// Recursion terminates because calls within one component collapse to
// the Rec marker, and all expansion shares the existing
// maxPatterns/MaxSize/maxDepth budgets.
package pattern

import (
	"context"

	"delinq/internal/callgraph"
	"delinq/internal/cfg"
	"delinq/internal/dataflow"
	"delinq/internal/disasm"
	"delinq/internal/isa"
)

// interproc is one program's interprocedural analysis state.
type interproc struct {
	cg *callgraph.Graph
	m  isa.Machine
	// facts holds each function's phase-1 result.
	facts map[*disasm.Func]funcFacts
	// incoming maps a function to the deduplicated argument patterns
	// arriving at its direct call sites, per argument register. It is
	// filled during phase 2 only: phase 1's return patterns stay in
	// terms of each function's own parameters.
	incoming map[*disasm.Func]*[4][]*Expr
}

// funcFacts is what phase 1 computes once per function and phase 2
// reads.
type funcFacts struct {
	// ret holds the address patterns of the function's return value
	// ($v0) at its return sites, over its own parameters, gp and
	// dereferences; nil when nothing informative is known (the value is
	// unanalysable or the function returns none).
	ret []*Expr
	df  *dataflow.Result
}

// summarize is phase 1: it builds the call graph of p and computes each
// function's facts, one function at a time in callee-first component
// order, so every callee outside a function's own component is done
// before the function is reached. The context is checked before each
// function.
func summarize(ctx context.Context, p *disasm.Program) (*interproc, error) {
	s := &interproc{cg: callgraph.Build(p), m: p.Machine, facts: make(map[*disasm.Func]funcFacts, len(p.Funcs))}
	for _, comp := range s.cg.SCCs() {
		for _, n := range comp {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s.facts[n.Fn] = s.compute(n.Fn)
		}
	}
	return s, nil
}

// compute builds one function's reaching definitions and return
// patterns. Calls into the function's own component resolve to the Rec
// marker; every other callee's facts are already computed.
func (s *interproc) compute(fn *disasm.Func) funcFacts {
	df := dataflow.AnalyzeMachine(cfg.Build(fn), s.m)
	b := newBuilder(fn, s.m, df)
	b.ipc = s
	b.summarizing = true

	// Return-value patterns of $v0 at each return site (jr $ra).
	var ret []*Expr
	informative := false
	for i, in := range fn.Insts {
		if !in.IsReturn() {
			continue
		}
		for _, e := range b.expandReg(isa.V0, i, 0, map[int]bool{}) {
			if len(ret) >= maxPatterns {
				break
			}
			ret = appendNew(ret, e)
			if e.Kind != Unknown && e.Kind != Ret {
				informative = true
			}
		}
	}
	if !informative {
		// Patterns of pure unknowns are worse than keeping the caller's
		// own Ret leaf: drop them.
		ret = nil
	}
	return funcFacts{ret: ret, df: df}
}

// analyzeProgram is phase 2: walk the condensation top-down (callers
// before callees), analyse each function's loads with interprocedural
// resolution, and propagate the argument patterns observed at each
// direct call site into the callee's incoming set. The context is
// checked before each function. Output order matches the
// intraprocedural AnalyzeProgramCtx exactly.
func (s *interproc) analyzeProgram(ctx context.Context) ([]*Load, error) {
	funcs := s.cg.Prog.Funcs
	byFn := make(map[*disasm.Func][]*Load, len(funcs))
	// With an indirect call in the program the caller set of any
	// function is unknowable, so Param resolution would be built from
	// an incomplete union; leave incoming nil and keep Param leaves.
	propagate := !s.cg.HasIndirect
	if propagate {
		s.incoming = make(map[*disasm.Func]*[4][]*Expr, len(funcs))
	}
	sccs := s.cg.SCCs()
	for ci := len(sccs) - 1; ci >= 0; ci-- {
		for _, n := range sccs[ci] {
			// Same-component call sites contribute the Rec marker
			// before any member is analysed, so mutual recursion is
			// visible no matter the within-component order.
			if propagate {
				for _, e := range n.Calls {
					if s.cg.SameSCC(n.Fn, e.Callee) {
						s.addIncoming(e.Callee, [4][]*Expr{{recLeaf}, {recLeaf}, {recLeaf}, {recLeaf}})
					}
				}
			}
		}
		for _, n := range sccs[ci] {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			b := newBuilder(n.Fn, s.m, s.facts[n.Fn].df)
			b.ipc = s
			byFn[n.Fn] = b.analyzeLoads()
			if !propagate {
				continue
			}
			for _, e := range n.Calls {
				if s.cg.SameSCC(n.Fn, e.Callee) {
					continue
				}
				var args [4][]*Expr
				for k := 0; k < 4; k++ {
					args[k] = b.expandReg(isa.A0+isa.Reg(k), e.Site, 0, map[int]bool{})
				}
				s.addIncoming(e.Callee, args)
			}
		}
	}
	var out []*Load
	for _, fn := range funcs {
		out = append(out, byFn[fn]...)
	}
	return out, nil
}

// addIncoming merges per-argument patterns into fn's incoming set,
// deduplicating and capping at maxPatterns alternatives per register.
func (s *interproc) addIncoming(fn *disasm.Func, args [4][]*Expr) {
	inc := s.incoming[fn]
	if inc == nil {
		inc = &[4][]*Expr{}
		s.incoming[fn] = inc
	}
	for k := 0; k < 4; k++ {
		for _, e := range args[k] {
			if len(inc[k]) >= maxPatterns {
				break
			}
			inc[k] = appendNew(inc[k], e)
		}
	}
}

// resolveParam returns the caller-side patterns for argument register
// reg of the builder's function, or nil to keep the Param leaf. Only
// meaningful during phase 2, after incoming sets are populated; during
// phase 1 it always returns nil so return patterns stay expressed over
// the function's own parameters.
func (b *builder) resolveParam(reg isa.Reg) []*Expr {
	if b.ipc == nil || b.summarizing {
		return nil
	}
	inc := b.ipc.incoming[b.fn]
	if inc == nil {
		return nil
	}
	k := int(reg - isa.A0)
	if k < 0 || k >= 4 || len(inc[k]) == 0 {
		return nil
	}
	// Keep the substitution only if it says more than the bare leaf.
	for _, e := range inc[k] {
		if e.Kind != Unknown {
			return inc[k]
		}
	}
	return nil
}

// resolveRet replaces the result of the call that produced definition d
// with the callee's instantiated return patterns, or returns nil to keep
// the Ret leaf (indirect call, syscall, unknown or uninformative
// callee). In phase 1, calls inside the function's own component yield
// the Rec marker so the fixpoint terminates.
func (b *builder) resolveRet(d dataflow.Def, reg isa.Reg, depth int, visiting map[int]bool) []*Expr {
	if b.ipc == nil || reg != isa.V0 || visiting[int(d.ID)] {
		return nil
	}
	site := int(d.Inst)
	in := b.fn.Insts[site]
	if !in.IsCall() {
		return nil // syscall clobber: no callee at all
	}
	if _, ok := in.DirectJumpTarget(b.fn.PC(site)); !ok {
		return nil // indirect call (jalr/blx): no static callee
	}
	callee := b.ipc.cg.CalleeAt(b.fn, site)
	if callee == nil {
		return nil
	}
	if b.summarizing && b.ipc.cg.SameSCC(b.fn, callee) {
		return []*Expr{recLeaf}
	}
	ret := b.ipc.facts[callee].ret
	if len(ret) == 0 {
		return nil
	}
	if depth >= maxDepth {
		b.truncated = true
		return nil
	}
	// The callee's patterns speak of its own parameters; instantiate them
	// with the argument patterns live at this call site, lazily per
	// register.
	visiting[int(d.ID)] = true
	defer delete(visiting, int(d.ID))
	var args [4][]*Expr
	var done [4]bool
	getArg := func(k int) []*Expr {
		if !done[k] {
			done[k] = true
			args[k] = b.expandReg(isa.A0+isa.Reg(k), site, depth+1, visiting)
		}
		return args[k]
	}
	var out []*Expr
	for _, rp := range ret {
		for _, e := range b.instantiate(rp, getArg) {
			if len(out) >= maxPatterns {
				b.truncated = true
				return out
			}
			out = append(out, e)
		}
	}
	return out
}

// instantiate rewrites one callee-side pattern into caller terms:
// Param leaves become the call-site argument patterns (cross products
// capped at maxPatterns), the callee's dead frame (sp) and any leaf
// that only meant something inside the callee (an unresolved nested
// Ret) become Unknown, while gp, constants, dereferences, and the Rec
// marker survive unchanged.
func (b *builder) instantiate(e *Expr, getArg func(int) []*Expr) []*Expr {
	switch e.Kind {
	case Const, GP, Unknown:
		return []*Expr{e}
	case SP:
		return []*Expr{unknownLeaf}
	case Ret:
		return []*Expr{unknownLeaf}
	case Param:
		if k := int(e.Reg - isa.A0); k >= 0 && k < 4 {
			if alts := getArg(k); len(alts) > 0 {
				return alts
			}
		}
		return []*Expr{unknownLeaf}
	case Rec:
		if e.L == nil {
			return []*Expr{e}
		}
		var out []*Expr
		for _, l := range b.instantiate(e.L, getArg) {
			out = append(out, &Expr{Kind: Rec, L: l})
		}
		return b.cap(out)
	case Deref:
		var out []*Expr
		for _, l := range b.instantiate(e.L, getArg) {
			out = append(out, NewDeref(l))
		}
		return b.cap(out)
	}
	var out []*Expr
	ls := b.instantiate(e.L, getArg)
	rs := b.instantiate(e.R, getArg)
	for _, l := range ls {
		for _, r := range rs {
			out = append(out, binary(e.Kind, l, r))
		}
	}
	return b.cap(out)
}
