// Package cfg reconstructs per-function control-flow graphs from
// disassembled code: basic blocks, successor/predecessor edges, reverse
// postorder, and loop back-edge detection. The address-pattern analysis
// and the basic-block profiler are both built on these graphs.
package cfg

import (
	"delinq/internal/disasm"
	"delinq/internal/isa"
)

// Block is one basic block: instructions [Start, End) of the function.
type Block struct {
	Index int
	Start int // first instruction index
	End   int // one past the last instruction
	Succs []*Block
	Preds []*Block
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return b.End - b.Start }

// Graph is the control-flow graph of a single function.
type Graph struct {
	Fn     *disasm.Func
	Blocks []*Block
	// BlockOf maps an instruction index to its containing block.
	BlockOf []*Block
}

// Build constructs the CFG of a disassembled function.
func Build(fn *disasm.Func) *Graph {
	n := len(fn.Insts)
	g := &Graph{Fn: fn, BlockOf: make([]*Block, n)}
	if n == 0 {
		return g
	}

	// Identify leaders. Unlike isa.Inst.EndsBlock, calls and syscalls
	// end blocks here — the dataflow layer models call clobbering at
	// block granularity — but control continues to the fall-through
	// block.
	leader := make([]bool, n)
	leader[0] = true
	for i, in := range fn.Insts {
		if in.IsBranch() {
			if t := fn.Index(in.BranchTarget(fn.PC(i))); t >= 0 {
				leader[t] = true
			}
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if in.IsJump() {
			// Direct non-call jumps (j, b) stay local; call targets are
			// other functions and never split this one.
			if !in.IsCall() {
				if tgt, ok := in.DirectJumpTarget(fn.PC(i)); ok {
					if t := fn.Index(tgt); t >= 0 {
						leader[t] = true
					}
				}
			}
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if in.IsSyscall() && i+1 < n {
			leader[i+1] = true
		}
	}

	// Carve blocks.
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || leader[i] {
			b := &Block{Index: len(g.Blocks), Start: start, End: i}
			g.Blocks = append(g.Blocks, b)
			for j := start; j < i; j++ {
				g.BlockOf[j] = b
			}
			start = i
		}
	}

	// Edges.
	link := func(from, to *Block) {
		from.Succs = append(from.Succs, to)
		to.Preds = append(to.Preds, from)
	}
	for bi, b := range g.Blocks {
		last := fn.Insts[b.End-1]
		var fall *Block
		if bi+1 < len(g.Blocks) {
			fall = g.Blocks[bi+1]
		}
		switch {
		case last.IsBranch():
			if t := fn.Index(last.BranchTarget(fn.PC(b.End - 1))); t >= 0 {
				link(b, g.BlockOf[t])
			}
			if fall != nil {
				link(b, fall)
			}
		case last.Op == isa.J, last.Op == isa.AB:
			if tgt, ok := last.DirectJumpTarget(fn.PC(b.End - 1)); ok {
				if t := fn.Index(tgt); t >= 0 {
					link(b, g.BlockOf[t])
				}
			}
			// A jump outside the function is a tail transfer: no local edge.
		case last.Op == isa.JR, last.Op == isa.ABX:
			// Return or computed jump: no intraprocedural successor.
		case last.IsCall(), last.IsSyscall():
			if fall != nil {
				link(b, fall)
			}
		default:
			if fall != nil {
				link(b, fall)
			}
		}
	}
	return g
}

// ReversePostorder returns blocks in reverse postorder from the entry
// block; unreachable blocks follow in index order.
func (g *Graph) ReversePostorder() []*Block {
	if len(g.Blocks) == 0 {
		return nil
	}
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Blocks[0])
	out := make([]*Block, 0, len(g.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for _, b := range g.Blocks {
		if !seen[b.Index] {
			out = append(out, b)
		}
	}
	return out
}

// BackEdges returns the (tail, head) pairs of loop back edges, detected
// by DFS edge classification from the entry block.
func (g *Graph) BackEdges() [][2]*Block {
	if len(g.Blocks) == 0 {
		return nil
	}
	const (
		white = iota
		grey
		black
	)
	color := make([]int, len(g.Blocks))
	var edges [][2]*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		color[b.Index] = grey
		for _, s := range b.Succs {
			switch color[s.Index] {
			case white:
				dfs(s)
			case grey:
				edges = append(edges, [2]*Block{b, s})
			}
		}
		color[b.Index] = black
	}
	dfs(g.Blocks[0])
	return edges
}

// LoopDepth returns, for each block, the number of natural loops whose
// body contains it — the loop-nesting depth used by static frequency
// estimation. Blocks outside every loop have depth 0.
func (g *Graph) LoopDepth() []int {
	depth := make([]int, len(g.Blocks))
	type loop struct{ body map[int]bool }
	var loops []loop
	for _, e := range g.BackEdges() {
		tail, head := e[0], e[1]
		body := map[int]bool{head.Index: true}
		stack := []*Block{tail}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if body[b.Index] {
				continue
			}
			body[b.Index] = true
			for _, p := range b.Preds {
				stack = append(stack, p)
			}
		}
		loops = append(loops, loop{body})
	}
	// Merge loops sharing a header: two back edges to the same head are
	// one loop, not two nesting levels.
	merged := map[*Block]map[int]bool{}
	for i, e := range g.BackEdges() {
		head := e[1]
		if merged[head] == nil {
			merged[head] = map[int]bool{}
		}
		for b := range loops[i].body {
			merged[head][b] = true
		}
	}
	for _, body := range merged {
		for b := range body {
			depth[b]++
		}
	}
	return depth
}

// LoopBlocks returns the set of block indices that lie on some cycle:
// for each back edge (t, h), the natural-loop body found by walking
// predecessors from t until h.
func (g *Graph) LoopBlocks() map[int]bool {
	in := map[int]bool{}
	for _, e := range g.BackEdges() {
		tail, head := e[0], e[1]
		in[head.Index] = true
		stack := []*Block{tail}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if in[b.Index] {
				continue
			}
			in[b.Index] = true
			for _, p := range b.Preds {
				stack = append(stack, p)
			}
		}
	}
	return in
}
