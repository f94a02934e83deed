// Package disasm recovers an instruction-level view of a linked image:
// the objdump stand-in. It decodes every text word and partitions the
// program into functions using the image's symbol table, which is the
// representation the post-compilation analysis passes consume.
package disasm

import (
	"fmt"
	"io"
	"sort"

	"delinq/internal/isa"
	"delinq/internal/obj"

	// Both backends register themselves so any image decodes.
	_ "delinq/internal/isa/arm"
	_ "delinq/internal/isa/mips"
)

// Func is one disassembled function.
type Func struct {
	Name  string
	Sym   *obj.Sym
	Entry uint32
	Insts []isa.Inst
}

// PC returns the address of instruction index i.
func (f *Func) PC(i int) uint32 { return f.Entry + uint32(i)*4 }

// Index returns the instruction index of address pc, or -1 if pc is
// outside the function.
func (f *Func) Index(pc uint32) int {
	if pc < f.Entry || pc >= f.Entry+uint32(len(f.Insts))*4 {
		return -1
	}
	return int((pc - f.Entry) / 4)
}

// Program is a fully disassembled image. Machine is the image's
// machine description, resolved once here for every analysis that
// reads the program.
type Program struct {
	Image   *obj.Image
	Machine isa.Machine
	Funcs   []*Func
}

// Disassemble decodes the image's text segment into functions.
// Instructions not covered by any function symbol are gathered into a
// synthetic ".orphan" function so no load escapes analysis.
func Disassemble(img *obj.Image) (*Program, error) {
	m, err := isa.ByName(img.ISAName())
	if err != nil {
		return nil, fmt.Errorf("disasm: %w", err)
	}
	p := &Program{Image: img, Machine: m}
	syms := img.Funcs()
	covered := make([]bool, len(img.Text))
	for _, sym := range syms {
		f := &Func{Name: sym.Name, Sym: sym, Entry: sym.Addr}
		n := int(sym.Size / 4)
		start := int((sym.Addr - obj.TextBase) / 4)
		for i := 0; i < n && start+i < len(img.Text); i++ {
			in, err := m.Decode(img.Text[start+i])
			if err != nil {
				return nil, fmt.Errorf("disasm: %s+%#x: %w", sym.Name, i*4, err)
			}
			f.Insts = append(f.Insts, in)
			covered[start+i] = true
		}
		p.Funcs = append(p.Funcs, f)
	}
	// Sweep for uncovered words.
	for i := 0; i < len(covered); {
		if covered[i] {
			i++
			continue
		}
		start := i
		f := &Func{
			Name:  fmt.Sprintf(".orphan_%x", obj.TextBase+uint32(start)*4),
			Entry: obj.TextBase + uint32(start)*4,
		}
		for i < len(covered) && !covered[i] {
			in, err := m.Decode(img.Text[i])
			if err != nil {
				return nil, fmt.Errorf("disasm: orphan %#x: %w", obj.TextBase+uint32(i)*4, err)
			}
			f.Insts = append(f.Insts, in)
			i++
		}
		p.Funcs = append(p.Funcs, f)
	}
	sort.Slice(p.Funcs, func(a, b int) bool { return p.Funcs[a].Entry < p.Funcs[b].Entry })
	return p, nil
}

// FuncAt returns the function containing pc, or nil.
func (p *Program) FuncAt(pc uint32) *Func {
	i := sort.Search(len(p.Funcs), func(i int) bool { return p.Funcs[i].Entry > pc })
	if i == 0 {
		return nil
	}
	f := p.Funcs[i-1]
	if f.Index(pc) < 0 {
		return nil
	}
	return f
}

// FuncByName returns the named function, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Print writes an objdump-style listing.
func (p *Program) Print(w io.Writer) error {
	for _, f := range p.Funcs {
		if _, err := fmt.Fprintf(w, "\n%08x <%s>:\n", f.Entry, f.Name); err != nil {
			return err
		}
		for i, in := range f.Insts {
			pc := f.PC(i)
			suffix := ""
			switch {
			case in.IsBranch():
				suffix = fmt.Sprintf("  # -> %#x", in.BranchTarget(pc))
			default:
				if t, ok := in.DirectJumpTarget(pc); ok {
					if tf := p.FuncAt(t); tf != nil && tf.Entry == t {
						suffix = fmt.Sprintf("  # %s", tf.Name)
					} else {
						suffix = fmt.Sprintf("  # -> %#x", t)
					}
				}
			}
			word, _ := p.Image.Word(pc)
			if _, err := fmt.Fprintf(w, "%8x:\t%08x\t%s%s\n", pc, word, in, suffix); err != nil {
				return err
			}
		}
	}
	return nil
}
