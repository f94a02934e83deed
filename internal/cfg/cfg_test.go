package cfg

import (
	"testing"

	"delinq/internal/asm"
	"delinq/internal/disasm"
)

func buildGraph(t *testing.T, src, fn string) *Graph {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	f := p.FuncByName(fn)
	if f == nil {
		t.Fatalf("function %q not found", fn)
	}
	return Build(f)
}

func TestStraightLine(t *testing.T) {
	g := buildGraph(t, `
main:
	li $t0, 1
	li $t1, 2
	add $v0, $t0, $t1
	jr $ra
`, "main")
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	b := g.Blocks[0]
	if b.End-b.Start != 4 || len(b.Succs) != 0 {
		t.Errorf("block = %+v", b)
	}
}

func TestDiamond(t *testing.T) {
	g := buildGraph(t, `
main:
	beq $a0, $zero, els
	li $v0, 1
	b done
els:
	li $v0, 2
done:
	jr $ra
`, "main")
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(g.Blocks))
	}
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Errorf("entry succs = %d", len(entry.Succs))
	}
	done := g.BlockOf[len(g.Fn.Insts)-1]
	if len(done.Preds) != 2 {
		t.Errorf("done preds = %d", len(done.Preds))
	}
	if len(g.BackEdges()) != 0 {
		t.Error("diamond has back edges")
	}
}

func TestLoopDetection(t *testing.T) {
	g := buildGraph(t, `
main:
	li $t0, 10
loop:
	addiu $t0, $t0, -1
	bne $t0, $zero, loop
	jr $ra
`, "main")
	edges := g.BackEdges()
	if len(edges) != 1 {
		t.Fatalf("back edges = %d, want 1", len(edges))
	}
	tail, head := edges[0][0], edges[0][1]
	if head.Start != 1 || tail != head {
		t.Errorf("back edge = (%d->%d)", tail.Index, head.Index)
	}
	depth := g.LoopDepth()
	if depth[head.Index] != 1 {
		t.Errorf("loop head depth = %d, want 1", depth[head.Index])
	}
	if depth[g.Blocks[0].Index] != 0 {
		t.Errorf("preheader depth = %d, want 0", depth[g.Blocks[0].Index])
	}
}

func TestNestedLoops(t *testing.T) {
	g := buildGraph(t, `
main:
	li $t0, 0
outer:
	li $t1, 0
inner:
	addiu $t1, $t1, 1
	slti $at, $t1, 10
	bne $at, $zero, inner
	addiu $t0, $t0, 1
	slti $at, $t0, 10
	bne $at, $zero, outer
	jr $ra
`, "main")
	if got := len(g.BackEdges()); got != 2 {
		t.Errorf("back edges = %d, want 2", got)
	}
	// entry, outer head, inner loop, outer latch, exit
	checkDepth(t, g, []int{0, 1, 2, 1, 0})
}

// TestSharedHeaderIsOneLoop: two back edges to one header are one loop,
// not two nesting levels.
func TestSharedHeaderIsOneLoop(t *testing.T) {
	g := buildGraph(t, `
main:
	li $t0, 0
loop:
	addiu $t0, $t0, 1
	beq $t0, $a0, loop
	slti $at, $t0, 10
	bne $at, $zero, loop
	jr $ra
`, "main")
	if got := len(g.BackEdges()); got != 2 {
		t.Errorf("back edges = %d, want 2", got)
	}
	checkDepth(t, g, []int{0, 1, 1, 0})
}

func checkDepth(t *testing.T, g *Graph, want []int) {
	t.Helper()
	depth := g.LoopDepth()
	if len(depth) != len(want) {
		t.Fatalf("LoopDepth = %v, want %v", depth, want)
	}
	for i := range want {
		if depth[i] != want[i] {
			t.Errorf("LoopDepth = %v, want %v", depth, want)
			return
		}
	}
}

func TestCallEndsBlockButFallsThrough(t *testing.T) {
	g := buildGraph(t, `
main:
	li $a0, 1
	jal helper
	move $v0, $v1
	jr $ra
helper:
	jr $ra
`, "main")
	if len(g.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(g.Blocks))
	}
	if len(g.Blocks[0].Succs) != 1 || g.Blocks[0].Succs[0] != g.Blocks[1] {
		t.Error("call block does not fall through")
	}
}

func TestReversePostorder(t *testing.T) {
	g := buildGraph(t, `
main:
	beq $a0, $zero, b2
	li $v0, 1
	b b3
b2:
	li $v0, 2
b3:
	jr $ra
`, "main")
	order := g.ReversePostorder()
	if len(order) != len(g.Blocks) {
		t.Fatalf("rpo covers %d of %d", len(order), len(g.Blocks))
	}
	if order[0] != g.Blocks[0] {
		t.Error("rpo does not start at entry")
	}
	pos := map[int]int{}
	for i, b := range order {
		pos[b.Index] = i
	}
	// Entry precedes all; the join block comes after both arms.
	join := g.BlockOf[len(g.Fn.Insts)-1]
	for _, b := range g.Blocks {
		if b != join && pos[b.Index] > pos[join.Index] {
			t.Errorf("block %d after join in rpo", b.Index)
		}
	}
}

func TestBlockOfMapping(t *testing.T) {
	g := buildGraph(t, `
main:
	li $t0, 1
	beq $t0, $zero, out
	li $t1, 2
out:
	jr $ra
`, "main")
	for i := range g.Fn.Insts {
		b := g.BlockOf[i]
		if b == nil || i < b.Start || i >= b.End {
			t.Errorf("BlockOf[%d] = %+v", i, b)
		}
	}
}

func TestLoopDepth(t *testing.T) {
	g := buildGraph(t, `
main:
	li $t0, 0
outer:
	li $t1, 0
inner:
	addiu $t1, $t1, 1
	slti $at, $t1, 10
	bne $at, $zero, inner
	addiu $t0, $t0, 1
	slti $at, $t0, 10
	bne $at, $zero, outer
	jr $ra
`, "main")
	depth := g.LoopDepth()
	// Entry block: depth 0; outer body: 1; inner body: 2.
	if depth[g.BlockOf[0].Index] != 0 {
		t.Errorf("entry depth = %d", depth[g.BlockOf[0].Index])
	}
	// Instruction 1 (li $t1) heads the outer loop body.
	if d := depth[g.BlockOf[1].Index]; d != 1 {
		t.Errorf("outer body depth = %d, want 1", d)
	}
	// Instruction 2 (addiu $t1) is the inner loop.
	if d := depth[g.BlockOf[2].Index]; d != 2 {
		t.Errorf("inner body depth = %d, want 2", d)
	}
	// The return block is outside both loops.
	last := len(g.Fn.Insts) - 1
	if d := depth[g.BlockOf[last].Index]; d != 0 {
		t.Errorf("exit depth = %d", d)
	}
}

func TestLoopDepthMergesSharedHeader(t *testing.T) {
	// Two back edges to the same header (continue-style) are one loop.
	g := buildGraph(t, `
main:
	li $t0, 0
head:
	addiu $t0, $t0, 1
	andi $at, $t0, 1
	bne $at, $zero, head
	slti $at, $t0, 10
	bne $at, $zero, head
	jr $ra
`, "main")
	depth := g.LoopDepth()
	if d := depth[g.BlockOf[1].Index]; d != 1 {
		t.Errorf("shared-header loop depth = %d, want 1", d)
	}
}

func TestLoopDepthNoLoops(t *testing.T) {
	g := buildGraph(t, `
main:
	beq $a0, $zero, out
	li $v0, 1
out:
	jr $ra
`, "main")
	for _, d := range g.LoopDepth() {
		if d != 0 {
			t.Errorf("loop-free CFG has depth %d", d)
		}
	}
}
