// Package freq estimates execution frequencies statically — the
// alternative to basic-block profiling that Section 5.2 of the paper
// suggests for criterion H5 ("it is entirely possible to replace
// profiling with static heuristic approximations in identifying
// infrequently executed load instructions", citing Wu-Larus and Wong).
//
// The estimator is deliberately simple, in the spirit of those papers:
// every loop is assumed to iterate tripCount times, call counts
// propagate over the call graph from the entry function, and an
// instruction's estimated count is its function's call count times
// tripCount raised to its loop-nesting depth. The absolute numbers are
// crude, but H5 only consumes them through the coarse rare/seldom/fair
// buckets, which is exactly where static estimation is credible.
package freq

import (
	"delinq/internal/callgraph"
	"delinq/internal/cfg"
	"delinq/internal/disasm"
)

// The estimator's constants.
const (
	// tripCount is the assumed iteration count of every loop: one
	// nesting level is enough to leave the "seldom executed" bucket,
	// as with real profiles.
	tripCount = 1000
	// maxCount caps estimates to avoid overflow in deep nests.
	maxCount = 1 << 40
	// recursionPasses bounds call-count propagation through cycles in
	// the call graph.
	recursionPasses = 8
)

// Profile holds estimated per-instruction execution counts and
// implements classify.ExecProfile.
type Profile struct {
	counts map[uint32]int64
}

// ExecCount returns the estimated execution count of the instruction at
// pc (0 for unreached code).
func (p *Profile) ExecCount(pc uint32) int64 { return p.counts[pc] }

// Estimate builds a static frequency profile for a program.
func Estimate(prog *disasm.Program) *Profile {
	p := &Profile{counts: map[uint32]int64{}}

	type fnInfo struct {
		node  *callgraph.Node
		graph *cfg.Graph
		depth []int
		calls int64 // estimated number of invocations
	}
	cg := callgraph.Build(prog)
	infos := make(map[*disasm.Func]*fnInfo, len(cg.Nodes))
	for _, n := range cg.Nodes {
		g := cfg.Build(n.Fn)
		infos[n.Fn] = &fnInfo{node: n, graph: g, depth: g.LoopDepth()}
	}

	mulCap := func(a, b int64) int64 {
		if a == 0 || b == 0 {
			return 0
		}
		if a > maxCount/b {
			return maxCount
		}
		return a * b
	}
	pow := func(base int64, exp int) int64 {
		out := int64(1)
		for i := 0; i < exp; i++ {
			out = mulCap(out, base)
		}
		return out
	}

	// The entry function runs once. Propagate call counts over the call
	// graph's direct call sites (jal and bl alike); a bounded number of
	// passes handles recursion (each pass a recursive call site adds
	// another round of its caller's weight, then the estimate saturates
	// at the cap or stops growing).
	entry := prog.FuncAt(prog.Image.Entry)
	if entry == nil {
		return p
	}
	infos[entry].calls = 1
	for pass := 0; pass < recursionPasses; pass++ {
		next := map[*disasm.Func]int64{entry: 1}
		for _, fi := range infos {
			if fi.calls == 0 {
				continue
			}
			for _, e := range fi.node.Calls {
				callee := e.Callee
				siteWeight := mulCap(fi.calls, pow(tripCount, fi.depth[fi.graph.BlockOf[e.Site].Index]))
				if next[callee]+siteWeight < next[callee] { // overflow
					next[callee] = maxCount
				} else {
					next[callee] += siteWeight
				}
				if next[callee] > maxCount {
					next[callee] = maxCount
				}
			}
		}
		changed := false
		for fn, fi := range infos {
			if next[fn] != fi.calls {
				fi.calls = next[fn]
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for fn, fi := range infos {
		for i := range fn.Insts {
			d := fi.depth[fi.graph.BlockOf[i].Index]
			p.counts[fn.PC(i)] = mulCap(fi.calls, pow(tripCount, d))
		}
	}
	return p
}
