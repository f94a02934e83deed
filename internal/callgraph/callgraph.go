// Package callgraph builds the whole-program call graph of a
// disassembled image and computes its strongly connected components.
// The interprocedural address-pattern analysis walks this graph twice:
// bottom-up (callees before callers) to compute each function's return
// patterns, and top-down (callers before callees) to propagate the
// argument patterns arriving at each function. The static frequency
// estimator (internal/freq) propagates call counts over its edges.
//
// Direct calls (jal/bl to the entry of a known function) become edges.
// Indirect calls (jalr, blx) have no static target: they are recorded on the
// caller and surfaced through Graph.HasIndirect so clients can fall
// back to conservative behaviour where an unknown caller or callee
// would make propagation unsound.
package callgraph

import (
	"delinq/internal/disasm"
)

// Edge is one direct call site: instruction Site of the calling
// function transfers to the entry of Callee.
type Edge struct {
	Site   int // instruction index in the caller
	Callee *disasm.Func
}

// Node is one function with its outgoing call edges.
type Node struct {
	Fn *disasm.Func
	// Calls lists the node's direct call sites in instruction order.
	Calls []Edge
	// HasIndirect reports whether the function contains a jalr call,
	// whose callee is statically unknown.
	HasIndirect bool
	// SCC is the index of the node's strongly connected component in
	// Graph.SCCs() order (callees before callers).
	SCC int
}

// Graph is the call graph of one program.
type Graph struct {
	Prog  *disasm.Program
	Nodes []*Node // in Prog.Funcs order
	// HasIndirect reports whether any function contains an indirect
	// call, i.e. whether the edge set may be incomplete.
	HasIndirect bool

	byFunc map[*disasm.Func]*Node
	sccs   [][]*Node
}

// Build constructs the call graph of a disassembled program. A jal
// whose target is not the entry of a known function (a jump into the
// middle of one, or outside the text segment) is treated like an
// indirect call: no edge, HasIndirect set.
func Build(p *disasm.Program) *Graph {
	g := &Graph{Prog: p, byFunc: make(map[*disasm.Func]*Node, len(p.Funcs))}
	for _, fn := range p.Funcs {
		n := &Node{Fn: fn}
		g.Nodes = append(g.Nodes, n)
		g.byFunc[fn] = n
	}
	for _, n := range g.Nodes {
		for i, in := range n.Fn.Insts {
			if !in.IsCall() {
				continue
			}
			var callee *disasm.Func
			if t, ok := in.DirectJumpTarget(n.Fn.PC(i)); ok {
				if tf := p.FuncAt(t); tf != nil && tf.Entry == t {
					callee = tf
				}
			}
			if callee == nil {
				n.HasIndirect = true
				g.HasIndirect = true
				continue
			}
			n.Calls = append(n.Calls, Edge{Site: i, Callee: callee})
		}
	}
	g.computeSCCs()
	return g
}

// NodeOf returns the node of fn, or nil if fn is not in the program.
func (g *Graph) NodeOf(fn *disasm.Func) *Node { return g.byFunc[fn] }

// CalleeAt returns the statically known callee of the call instruction
// at index i in fn, or nil for indirect or unresolvable calls.
func (g *Graph) CalleeAt(fn *disasm.Func, i int) *disasm.Func {
	n := g.byFunc[fn]
	if n == nil {
		return nil
	}
	for _, e := range n.Calls {
		if e.Site == i {
			return e.Callee
		}
	}
	return nil
}

// SCCs returns the strongly connected components in reverse
// topological order of the condensation: every component appears after
// the components it calls into, so a bottom-up (callee-first) pass can
// process the slices in order and a top-down pass in reverse. The
// order is deterministic for a given program.
func (g *Graph) SCCs() [][]*Node { return g.sccs }

// SameSCC reports whether a and b are mutually recursive (or equal and
// self-recursive is not required — a function is always in its own
// component).
func (g *Graph) SameSCC(a, b *disasm.Func) bool {
	na, nb := g.byFunc[a], g.byFunc[b]
	return na != nil && nb != nil && na.SCC == nb.SCC
}

// computeSCCs runs Tarjan's algorithm iteratively (generated code can
// contain long call chains; no recursion on the Go stack). Tarjan emits
// each component only after every component reachable from it, so the
// emission order is exactly the callee-first order SCCs documents.
func (g *Graph) computeSCCs() {
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	// Map nodes to dense indices via position (Nodes is in program order).
	pos := make(map[*Node]int, n)
	for i, nd := range g.Nodes {
		pos[nd] = i
	}
	var stack []int
	next := 0

	type frame struct {
		v  int
		ei int // next outgoing edge to consider
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		work := []frame{{v: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ei == 0 {
				if index[v] != -1 {
					// Duplicate push: two callers queued v before either
					// ran. Treat the edge as a plain non-tree edge.
					work = work[:len(work)-1]
					if len(work) > 0 && onStack[v] {
						p := work[len(work)-1].v
						if index[v] < low[p] {
							low[p] = index[v]
						}
					}
					continue
				}
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(g.Nodes[v].Calls) {
				w := pos[g.byFunc[g.Nodes[v].Calls[f.ei].Callee]]
				f.ei++
				if index[w] == -1 {
					work = append(work, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// All edges done: pop, update parent, emit component if root.
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []*Node
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					g.Nodes[w].SCC = len(g.sccs)
					comp = append(comp, g.Nodes[w])
					if w == v {
						break
					}
				}
				// Emit members in program order for determinism.
				for i, j := 0, len(comp)-1; i < j; i, j = i+1, j-1 {
					comp[i], comp[j] = comp[j], comp[i]
				}
				g.sccs = append(g.sccs, comp)
			}
		}
	}
}
