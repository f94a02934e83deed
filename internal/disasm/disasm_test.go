package disasm

import (
	"strings"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/obj"
)

const sample = `
	.data
v: .word 5
	.text
	.func main, frame=8
main:
	addiu $sp, $sp, -8
	sw $ra, 4($sp)
	jal helper
	lw $ra, 4($sp)
	addiu $sp, $sp, 8
	jr $ra
	.endfunc
	.func helper, frame=0
helper:
	lw $v0, v
	lw $t0, 0($sp)
	jr $ra
	.endfunc
`

func mustProgram(t *testing.T, src string) *Program {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDisassembleFunctions(t *testing.T) {
	p := mustProgram(t, sample)
	if len(p.Funcs) != 2 {
		t.Fatalf("got %d funcs: %v", len(p.Funcs), p.Funcs)
	}
	main := p.FuncByName("main")
	if main == nil || len(main.Insts) != 6 {
		t.Fatalf("main = %+v", main)
	}
	helper := p.FuncByName("helper")
	if helper == nil || len(helper.Insts) != 3 {
		t.Fatalf("helper = %+v", helper)
	}
	if helper.Entry != obj.TextBase+24 {
		t.Errorf("helper entry = %#x", helper.Entry)
	}
	if got := helper.PC(1); got != helper.Entry+4 {
		t.Errorf("PC(1) = %#x", got)
	}
	if helper.Index(helper.Entry+8) != 2 {
		t.Errorf("Index = %d", helper.Index(helper.Entry+8))
	}
	if helper.Index(main.Entry) != -1 {
		t.Error("Index outside function should be -1")
	}
}

func TestFuncAt(t *testing.T) {
	p := mustProgram(t, sample)
	if f := p.FuncAt(obj.TextBase + 4); f == nil || f.Name != "main" {
		t.Errorf("FuncAt main = %v", f)
	}
	if f := p.FuncAt(obj.TextBase + 24); f == nil || f.Name != "helper" {
		t.Errorf("FuncAt helper = %v", f)
	}
	if f := p.FuncAt(obj.TextBase - 4); f != nil {
		t.Errorf("FuncAt before text = %v", f)
	}
	if f := p.FuncAt(obj.TextBase + 4096); f != nil {
		t.Errorf("FuncAt past end = %v", f)
	}
}

func TestPrintListing(t *testing.T) {
	p := mustProgram(t, sample)
	var sb strings.Builder
	if err := p.Print(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"<main>:", "<helper>:", "jal", "# helper", "lw $v0,"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestOrphanCode(t *testing.T) {
	// A label that is never called, la'd, or in data becomes orphan code
	// attached to the preceding function's extent... unless the preceding
	// function's .func metadata bounds it. Build an image by hand to force
	// an uncovered region.
	img, err := asm.Assemble(`
	.func main, frame=0
main:
	jr $ra
	.endfunc
`)
	if err != nil {
		t.Fatal(err)
	}
	img.Text = append(img.Text, 0x03e00008) // stray jr $ra beyond main
	p, err := Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) != 2 || !strings.HasPrefix(p.Funcs[1].Name, ".orphan_") {
		t.Errorf("funcs = %v", p.Funcs)
	}
}
