// Interprocedural address patterns: bounded per-function summaries over
// the call graph. Phase 1 walks the strongly connected components in
// callee-first order (functions computed in parallel, memoised through
// internal/rescache) and records, per function, the address pattern of
// its return value and how deeply its loads dereference each argument
// register. It keeps each function's reaching definitions for phase 2,
// so one analysis computes them once per function. Phase 2 walks
// callers-first, propagating the argument patterns that arrive at every
// direct call site, and rebuilds each function's load patterns with
// both directions resolved: a Ret leaf becomes the callee's return
// summary instantiated at the call site, and a Param leaf becomes the
// union of the caller-side argument patterns. Recursion terminates
// because calls within one component collapse to the Rec marker, and
// all expansion shares the existing maxPatterns/MaxSize/maxDepth
// budgets.
package pattern

import (
	"context"
	"strconv"
	"sync"

	"delinq/internal/callgraph"
	"delinq/internal/cfg"
	"delinq/internal/dataflow"
	"delinq/internal/disasm"
	"delinq/internal/isa"
	"delinq/internal/isa/mips"
	"delinq/internal/rescache"
)

// Summary is the bounded interprocedural abstract of one function.
type Summary struct {
	Fn *disasm.Func
	// Ret holds the address patterns of the function's return value
	// ($v0) at its return sites, expressed over the function's own
	// parameters, gp, and dereferences. Nil when nothing informative is
	// known (the value is unanalysable or the function returns none).
	Ret []*Expr
	// ArgDeref[k] is the maximum dereference depth the function's loads
	// (transitively, through its direct callees) apply to argument
	// register a<k>; 0 means the argument is never used as (part of) a
	// load address.
	ArgDeref [4]int
	// Truncated reports that a budget cut the summary short.
	Truncated bool
}

// Summaries holds the per-function summaries of one program plus the
// caller-side argument patterns of phase 2.
type Summaries struct {
	cg *callgraph.Graph
	m  isa.Machine

	// cache holds each function's phase-1 result: its summary and the
	// reaching definitions phase 2 reuses.
	cache *rescache.Cache[*funcFacts]

	// incoming maps a function to the deduplicated argument patterns
	// arriving at its direct call sites, per argument register. It is
	// nil during phase 1 (summaries must stay in terms of the
	// function's own parameters) and populated serially during the
	// top-down phase 2 pass, so no lock is needed.
	incoming map[*disasm.Func]*[4][]*Expr
}

// funcFacts is what phase 1 computes once per function.
type funcFacts struct {
	sum *Summary
	df  *dataflow.Result
}

// ComputeSummaries builds the call graph of p and computes every
// function's Summary bottom-up (callees first). Functions are computed
// concurrently; the singleflight cache guarantees each summary is
// computed exactly once, with cross-component dependencies resolved by
// joining the in-flight computation.
func ComputeSummaries(p *disasm.Program) *Summaries {
	m, err := isa.ByName(p.Image.ISAName())
	if err != nil {
		m = mips.M
	}
	s := &Summaries{
		cg:    callgraph.Build(p),
		m:     m,
		cache: rescache.New[*funcFacts](rescache.Config{}, nil),
	}
	var wg sync.WaitGroup
	for _, comp := range s.cg.SCCs() {
		for _, n := range comp {
			wg.Add(1)
			go func(fn *disasm.Func) {
				defer wg.Done()
				s.summaryOf(fn)
			}(n.Fn)
		}
	}
	wg.Wait()
	return s
}

// Graph returns the underlying call graph.
func (s *Summaries) Graph() *callgraph.Graph { return s.cg }

// Of returns the summary of fn, computing it if needed.
func (s *Summaries) Of(fn *disasm.Func) *Summary { return s.summaryOf(fn) }

func summaryKey(fn *disasm.Func) string { return strconv.FormatUint(uint64(fn.Entry), 16) }

func (s *Summaries) summaryOf(fn *disasm.Func) *Summary {
	if f := s.factsOf(fn); f != nil {
		return f.sum
	}
	return nil
}

// factsOf returns fn's phase-1 result, computing it if needed.
func (s *Summaries) factsOf(fn *disasm.Func) *funcFacts {
	if s.cg.NodeOf(fn) == nil {
		return nil
	}
	f, _, _ := s.cache.Do(context.Background(), summaryKey(fn), func() (*funcFacts, bool, error) {
		return s.compute(fn), true, nil
	})
	return f
}

// compute builds one function's reaching definitions and summary.
// Callee summaries outside fn's component are demanded recursively
// (they are in earlier components, so the recursion follows the
// condensation DAG and terminates); calls within the component resolve
// to the Rec marker.
func (s *Summaries) compute(fn *disasm.Func) *funcFacts {
	node := s.cg.NodeOf(fn)
	mates := map[*disasm.Func]bool{fn: true}
	for _, m := range s.cg.SCCs()[node.SCC] {
		mates[m.Fn] = true
	}
	df := dataflow.AnalyzeMachine(cfg.Build(fn), s.m)
	b := newBuilder(fn, s.m, df)
	b.ipc = s
	b.sccMates = mates

	sum := &Summary{Fn: fn}

	// Return-value patterns of $v0 at each return site (jr $ra).
	informative := false
	for i, in := range fn.Insts {
		if !in.IsReturn() {
			continue
		}
		b.truncated = false
		for _, e := range b.expandReg(isa.V0, i, 0, map[int]bool{}) {
			if len(sum.Ret) >= maxPatterns {
				sum.Truncated = true
				break
			}
			sum.Ret = appendNew(sum.Ret, e)
			if e.Kind != Unknown && e.Kind != Ret {
				informative = true
			}
		}
		sum.Truncated = sum.Truncated || b.truncated
	}
	if !informative {
		// A summary of pure unknowns is worse than keeping the caller's
		// own Ret leaf: drop it.
		sum.Ret = nil
	}

	// How deeply the function's own loads dereference each argument:
	// the load itself adds one level over the address pattern.
	for i, in := range fn.Insts {
		if !in.IsLoad() {
			continue
		}
		b.truncated = false
		for _, base := range b.expandReg(in.Rs, i, 0, map[int]bool{}) {
			p := binary(Add, base, NewConst(in.MemOffset()))
			for k := 0; k < 4; k++ {
				if d := derefOverParam(p, isa.A0+isa.Reg(k)); d >= 0 && d+1 > sum.ArgDeref[k] {
					sum.ArgDeref[k] = d + 1
				}
			}
		}
	}

	// Arguments forwarded into direct callees inherit the callee's
	// consumption depth, so a chain of helpers still reports how far
	// the original argument is chased.
	for _, e := range node.Calls {
		if mates[e.Callee] {
			continue
		}
		cs := s.summaryOf(e.Callee)
		if cs == nil {
			continue
		}
		for k := 0; k < 4; k++ {
			if cs.ArgDeref[k] == 0 {
				continue
			}
			b.truncated = false
			for _, a := range b.expandReg(isa.A0+isa.Reg(k), e.Site, 0, map[int]bool{}) {
				for r := 0; r < 4; r++ {
					if d := derefOverParam(a, isa.A0+isa.Reg(r)); d >= 0 && d+cs.ArgDeref[k] > sum.ArgDeref[r] {
						sum.ArgDeref[r] = d + cs.ArgDeref[k]
					}
				}
			}
		}
	}
	return &funcFacts{sum: sum, df: df}
}

// derefOverParam returns the maximum number of dereferences on a path
// from the root of e to a Param leaf of reg, or -1 if reg does not
// occur.
func derefOverParam(e *Expr, reg isa.Reg) int {
	best := -1
	var walk func(e *Expr, d int)
	walk = func(e *Expr, d int) {
		switch e.Kind {
		case Param:
			if e.Reg == reg && d > best {
				best = d
			}
			return
		case Deref:
			walk(e.L, d+1)
			return
		}
		if e.L != nil {
			walk(e.L, d)
		}
		if e.R != nil {
			walk(e.R, d)
		}
	}
	walk(e, 0)
	return best
}

// analyzeProgram is phase 2: walk the condensation top-down (callers
// before callees), analyse each function's loads with interprocedural
// resolution, and propagate the argument patterns observed at each
// direct call site into the callee's incoming set. Output order matches
// the intraprocedural AnalyzeProgramCtx exactly.
func (s *Summaries) analyzeProgram(p *disasm.Program) []*Load {
	byFn := make(map[*disasm.Func][]*Load, len(p.Funcs))
	// With an indirect call in the program the caller set of any
	// function is unknowable, so Param resolution would be built from
	// an incomplete union; leave incoming nil and keep Param leaves.
	propagate := !s.cg.HasIndirect
	if propagate {
		s.incoming = make(map[*disasm.Func]*[4][]*Expr, len(p.Funcs))
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
			b := newBuilder(n.Fn, s.m, s.factsOf(n.Fn).df)
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
					b.truncated = false
					args[k] = b.expandReg(isa.A0+isa.Reg(k), e.Site, 0, map[int]bool{})
				}
				s.addIncoming(e.Callee, args)
			}
		}
	}
	var out []*Load
	for _, fn := range p.Funcs {
		out = append(out, byFn[fn]...)
	}
	return out
}

// addIncoming merges per-argument patterns into fn's incoming set,
// deduplicating and capping at maxPatterns alternatives per register.
func (s *Summaries) addIncoming(fn *disasm.Func, args [4][]*Expr) {
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
// summary computation (phase 1) it always returns nil so summaries stay
// expressed over the function's own parameters.
func (b *builder) resolveParam(reg isa.Reg) []*Expr {
	if b.ipc == nil || b.ipc.incoming == nil || b.sccMates != nil {
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
// with the callee's instantiated return summary, or returns nil to keep
// the Ret leaf (indirect call, syscall, unknown or uninformative
// callee). Within a summary computation, calls inside the function's
// own component yield the Rec marker so the fixpoint terminates.
func (b *builder) resolveRet(d dataflow.Def, reg isa.Reg, depth int, visiting map[int]bool) []*Expr {
	if b.ipc == nil || reg != isa.V0 || visiting[d.ID] {
		return nil
	}
	in := b.fn.Insts[d.Inst]
	if !in.IsCall() {
		return nil // syscall clobber: no callee at all
	}
	if _, ok := in.DirectJumpTarget(b.fn.PC(d.Inst)); !ok {
		return nil // indirect call (jalr/blx): no static callee
	}
	callee := b.ipc.cg.CalleeAt(b.fn, d.Inst)
	if callee == nil {
		return nil
	}
	if b.sccMates != nil && b.sccMates[callee] {
		return []*Expr{recLeaf}
	}
	sum := b.ipc.summaryOf(callee)
	if sum == nil || len(sum.Ret) == 0 {
		return nil
	}
	if depth >= maxDepth {
		b.truncated = true
		return nil
	}
	// The callee summary speaks of its own parameters; instantiate them
	// with the argument patterns live at this call site, lazily per
	// register.
	visiting[d.ID] = true
	defer delete(visiting, d.ID)
	var args [4][]*Expr
	var done [4]bool
	getArg := func(k int) []*Expr {
		if !done[k] {
			done[k] = true
			args[k] = b.expandReg(isa.A0+isa.Reg(k), d.Inst, depth+1, visiting)
		}
		return args[k]
	}
	var out []*Expr
	for _, rp := range sum.Ret {
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
