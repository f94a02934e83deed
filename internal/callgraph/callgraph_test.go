package callgraph

import (
	"testing"

	"delinq/internal/asm"
	"delinq/internal/disasm"
)

// buildGraph assembles src and returns its call graph.
func buildGraph(t *testing.T, src string) *Graph {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	return Build(p)
}

const chainSrc = `
	.text
	.func leaf, frame=0
leaf:
	lw $v0, 0($a0)
	jr $ra
	.endfunc
	.func mid, frame=0
mid:
	jal leaf
	jr $ra
	.endfunc
	.func main, frame=0
main:
	jal mid
	jal leaf
	jr $ra
	.endfunc
`

func TestDirectEdges(t *testing.T) {
	g := buildGraph(t, chainSrc)
	main := g.Prog.FuncByName("main")
	mid := g.Prog.FuncByName("mid")
	leaf := g.Prog.FuncByName("leaf")
	if main == nil || mid == nil || leaf == nil {
		t.Fatal("functions missing")
	}
	if g.HasIndirect {
		t.Error("no indirect calls expected")
	}
	mn := g.NodeOf(main)
	if len(mn.Calls) != 2 || mn.Calls[0].Callee != mid || mn.Calls[1].Callee != leaf {
		t.Errorf("main calls = %v", mn.Calls)
	}
	if got := g.CalleeAt(main, mn.Calls[0].Site); got != mid {
		t.Errorf("CalleeAt(main, %d) = %v", mn.Calls[0].Site, got)
	}
	if g.CalleeAt(main, 99) != nil {
		t.Error("CalleeAt at a non-call index should be nil")
	}
}

func TestSCCOrderCalleesFirst(t *testing.T) {
	g := buildGraph(t, chainSrc)
	// Reverse topological order: each component appears after the
	// components it calls into.
	seen := map[int]bool{}
	for i, comp := range g.SCCs() {
		if len(comp) != 1 {
			t.Fatalf("unexpected multi-node SCC %d", i)
		}
		for _, e := range comp[0].Calls {
			if !seen[g.NodeOf(e.Callee).SCC] {
				t.Errorf("%s processed before its callee %s", comp[0].Fn.Name, e.Callee.Name)
			}
		}
		seen[comp[0].SCC] = true
	}
	if len(g.SCCs()) < 3 {
		t.Fatalf("expected >= 3 SCCs, got %d", len(g.SCCs()))
	}
}

func TestMutualRecursionSCC(t *testing.T) {
	g := buildGraph(t, `
	.text
	.func even, frame=0
even:
	jal odd
	jr $ra
	.endfunc
	.func odd, frame=0
odd:
	jal even
	jr $ra
	.endfunc
	.func main, frame=0
main:
	jal even
	jr $ra
	.endfunc
`)
	even := g.Prog.FuncByName("even")
	odd := g.Prog.FuncByName("odd")
	main := g.Prog.FuncByName("main")
	if !g.SameSCC(even, odd) {
		t.Error("even and odd should share an SCC")
	}
	if g.SameSCC(even, main) {
		t.Error("main must not join the recursive SCC")
	}
	// Callee-first order: the recursive component precedes main's.
	if g.NodeOf(even).SCC > g.NodeOf(main).SCC {
		t.Error("recursive SCC should be emitted before its caller")
	}
}

func TestSelfRecursion(t *testing.T) {
	g := buildGraph(t, `
	.text
	.func rec, frame=0
rec:
	jal rec
	jr $ra
	.endfunc
	.func main, frame=0
main:
	jal rec
	jr $ra
	.endfunc
`)
	rec := g.Prog.FuncByName("rec")
	main := g.Prog.FuncByName("main")
	if n := g.NodeOf(rec); len(n.Calls) != 1 || n.Calls[0].Callee != rec {
		t.Errorf("rec calls = %v, want one self edge", n.Calls)
	}
	if g.SameSCC(rec, main) || g.NodeOf(rec).SCC > g.NodeOf(main).SCC {
		t.Error("the self-recursive component should stand alone, before its caller")
	}
}

func TestIndirectCallFlag(t *testing.T) {
	g := buildGraph(t, `
	.text
	.func main, frame=0
main:
	jalr $ra, $t0
	jr $ra
	.endfunc
`)
	if !g.HasIndirect {
		t.Error("jalr should set HasIndirect")
	}
	if n := g.NodeOf(g.Prog.FuncByName("main")); !n.HasIndirect || len(n.Calls) != 0 {
		t.Errorf("node = %+v", n)
	}
}
