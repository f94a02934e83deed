package baseline

import (
	"context"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/disasm"
	"delinq/internal/pattern"
)

func analyze(t *testing.T, src string) (*disasm.Program, []*pattern.Load) {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := pattern.AnalyzeProgramCtx(context.Background(), p, pattern.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p, loads
}

func loadAt(t *testing.T, prog *disasm.Program, loads []*pattern.Load, fn string, idx int) *pattern.Load {
	t.Helper()
	f := prog.FuncByName(fn)
	for _, ld := range loads {
		if ld.Func == f && ld.Index == idx {
			return ld
		}
	}
	t.Fatalf("no load at %s[%d]", fn, idx)
	return nil
}

func TestOKN(t *testing.T) {
	prog, loads := analyze(t, `
main:
	lw $t0, 8($sp)       # 0: plain scalar: excluded
	lw $t1, 0($t0)       # 1: pointer dereference: included
	sll $t2, $t0, 2
	addiu $t3, $sp, 16
	add $t3, $t3, $t2
	lw $t4, 0($t3)       # 5: strided/indexed: included
	jr $ra
`)
	set := OKN(loads)
	fn := prog.FuncByName("main")
	if set[fn.PC(0)] {
		t.Error("scalar stack load selected by OKN")
	}
	if !set[fn.PC(1)] {
		t.Error("pointer dereference not selected by OKN")
	}
	if !set[fn.PC(5)] {
		t.Error("indexed load not selected by OKN")
	}
}

const bdhSrc = `
	.struct Node, key:0:int, next:4:ptr:struct:Node
	.data
gscalar: .word 7
	.object garr, arr:32:int
garr:    .space 128
	.text
	.func main, frame=32
	.local x:8:int
	.local p:12:ptr:struct:Node
	.local buf:16:arr:4:int
main:
	lw $t0, 8($sp)        # 0: stack scalar non-pointer -> SSN
	lw $t1, 12($sp)       # 1: stack scalar, pointer (used as base) -> SSP
	lw $t2, 4($t1)        # 2: heap field, loads Node.next (ptr) -> HFP
	lw $t3, 0($t1)        # 3: heap field, Node.key -> HFN
	lw $t4, gscalar       # 4: global scalar -> GSN
	lw $t5, 4($sp)
	sll $t5, $t5, 2
	la $t6, garr
	add $t6, $t6, $t5
	lw $t7, 0($t6)        # 9: global array -> GAN
	jr $ra
	.endfunc
`

func TestBDHClassification(t *testing.T) {
	prog, loads := analyze(t, bdhSrc)
	classes := ClassifyBDH(prog, loads)
	fn := prog.FuncByName("main")
	want := map[int]string{
		0: "SSN",
		1: "SSP",
		2: "HFP",
		3: "HFN",
		4: "GSN",
		9: "GAN",
	}
	for idx, w := range want {
		ld := loadAt(t, prog, loads, "main", idx)
		got := classes[ld.PC]
		if got.String() != w {
			t.Errorf("load %d (%v): class %s, want %s (pattern %v)",
				idx, ld.Inst, got, w, ld.Patterns[0])
		}
	}
	_ = fn
}

// symtabSrc exercises the symbol-table half of BDH: each load's class
// comes from the declared type at its address, with no value
// propagation. pad pushes far out of the gp window, so its load is an
// absolute (lui-based) address.
const symtabSrc = `
	.struct Node, key:0:int, next:4:ptr:struct:Node
	.data
	.object garr, arr:32:int
garr:    .space 128
	.object gnode, struct:Node
gnode:   .space 8
pad:     .space 70000
	.object far, ptr:int
far:     .word 0
	.text
	.func main, frame=48
	.local parr:16:arr:4:ptr:int
	.local s:32:struct:Node
main:
	lw $t0, 20($sp)       # 0: element of a local array of pointers -> SAP
	lw $t1, 36($sp)       # 1: field of a local struct -> SFN
	lw $t2, garr+8        # 2: constant element of a global array -> GAN
	lw $t3, gnode+4       # 3: pointer field of a global struct -> GFP
	lw $t4, far           # 4-5: lui, then an absolute global pointer -> GSP
	jr $ra
	.endfunc
`

func TestBDHSymbolTableClasses(t *testing.T) {
	prog, loads := analyze(t, symtabSrc)
	classes := ClassifyBDH(prog, loads)
	for idx, w := range map[int]string{0: "SAP", 1: "SFN", 2: "GAN", 3: "GFP", 5: "GSP"} {
		ld := loadAt(t, prog, loads, "main", idx)
		if got := classes[ld.PC]; got.String() != w {
			t.Errorf("load %d (%v): class %s, want %s (pattern %v)",
				idx, ld.Inst, got, w, ld.Patterns[0])
		}
	}
}

func TestBDHDelinquentSet(t *testing.T) {
	prog, loads := analyze(t, bdhSrc)
	set := BDH(prog, loads)
	fn := prog.FuncByName("main")
	// GAN, HFP, HFN are delinquent classes; SSN, SSP, GSN are not.
	wantIn := []int{2, 3, 9}
	wantOut := []int{0, 1, 4}
	for _, idx := range wantIn {
		if !set[fn.PC(idx)] {
			t.Errorf("load %d missing from BDH set", idx)
		}
	}
	for _, idx := range wantOut {
		if set[fn.PC(idx)] {
			t.Errorf("load %d wrongly in BDH set", idx)
		}
	}
}

func TestIsDelinquentClass(t *testing.T) {
	in := []string{"GAN", "HSN", "HFN", "HAN", "HFP", "HAP"}
	got := map[string]bool{}
	for r := RegStack; r <= RegGlobal; r++ {
		for k := KindScalar; k <= KindField; k++ {
			for ty := TypeNonPointer; ty <= TypePointer; ty++ {
				c := Class{r, k, ty}
				got[c.String()] = IsDelinquentClass(c)
			}
		}
	}
	n := 0
	for _, name := range in {
		if !got[name] {
			t.Errorf("%s not delinquent", name)
		}
	}
	for name, d := range got {
		if d {
			n++
			found := false
			for _, w := range in {
				if w == name {
					found = true
				}
			}
			if !found {
				t.Errorf("unexpected delinquent class %s", name)
			}
		}
	}
	if n != 6 {
		t.Errorf("%d delinquent classes, want 6", n)
	}
}

func TestPointerPropagationThroughArithmetic(t *testing.T) {
	// The loaded value flows through an add before being used as a
	// base: still a pointer load.
	prog, loads := analyze(t, `
	.func main, frame=16
	.local q:4:int
main:
	lw $t0, 4($sp)
	addiu $t1, $t0, 8
	lw $t2, 0($t1)
	jr $ra
	.endfunc
`)
	classes := ClassifyBDH(prog, loads)
	ld := loadAt(t, prog, loads, "main", 0)
	if classes[ld.PC].Type != TypePointer {
		t.Errorf("propagated pointer load classed %v", classes[ld.PC])
	}
}

func TestHeapArrayViaMallocResult(t *testing.T) {
	prog, loads := analyze(t, `
main:
	li $a0, 400
	li $v0, 9
	syscall              # sbrk -> v0 points at heap
	move $t0, $v0
	lw $t1, 4($sp)
	sll $t1, $t1, 2
	add $t0, $t0, $t1
	lw $v1, 0($t0)       # 7: heap array access
	jr $ra
`)
	classes := ClassifyBDH(prog, loads)
	ld := loadAt(t, prog, loads, "main", 7)
	got := classes[ld.PC]
	if got.Region != RegHeap || got.Kind != KindArray {
		t.Errorf("heap array classed %v", got)
	}
}
