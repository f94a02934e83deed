// Package asm implements a two-pass assembler from MIPS-style assembly
// to an obj.Image.
//
// Its input is a Program: typed statements, each a label, a directive
// or an instruction with typed operands. The mini-C code generator
// appends statements to a Program directly and AssembleProgram links
// it, so the build path never prints or parses assembly text. Assemble
// parses text into the same statements (one statement per line; a
// label, then a tab and the statement), which is how hand-written
// assembly is read and how compiled text is checked against the
// structured path. Program.Text is the rendering Assemble reads back.
//
// Beyond instructions it understands segment directives (.text/.data),
// data directives (.word/.half/.byte/.float/.space/.ascii/.asciiz/.align),
// symbol metadata emitted by the mini-C compiler (.func/.endfunc/.local/
// .param/.object/.struct/.entry), and the usual pseudo-instructions (li,
// la, move, b, beqz/bnez, bge/bgt/ble/blt, neg, not, li.s).
//
// Comments run from '#' to end of line.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"delinq/internal/isa"
	"delinq/internal/obj"
)

// Error is an assembly diagnostic with its source line. Line 0 is a
// diagnostic about the program as a whole.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.Line == 0 {
		return "asm: " + e.Msg
	}
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

type segment int

const (
	segText segment = iota
	segData
)

// maxSpace caps a single .space reservation so a malformed or hostile
// source line cannot allocate an arbitrarily large data segment.
const maxSpace = 1 << 26

type pendingFunc struct {
	name      string
	frameSize int32
	locals    []obj.Local
}

// symbol is a defined label: its address and segment.
type symbol struct {
	addr uint32
	seg  segment
}

type assembler struct {
	img     *obj.Image
	stmts   []Stmt
	seg     segment
	sym     map[string]symbol
	objType map[string]*obj.Type // .object declarations
	funcs   []*pendingFunc
	curFunc *pendingFunc
	entry   string
	data    []byte
	emitPC  uint32
	fixups  []fixup
	insts   [3]isa.Inst // expand's output buffer
}

// fixup patches a .word holding the address of a symbol that was not yet
// laid out when the data segment was built (text labels: function-pointer
// tables).
type fixup struct {
	line int
	off  int // byte offset in data
	sym  string
	add  int64
}

// Assemble parses assembly text and links it into an image.
func Assemble(src string) (*obj.Image, error) {
	p, err := parse(src)
	if err != nil {
		return nil, err
	}
	return AssembleProgram(p)
}

// AssembleProgram links a program into an image.
func AssembleProgram(p *Program) (*obj.Image, error) {
	for i := range p.Stmts {
		if err := p.Stmts[i].check(); err != nil {
			return nil, err
		}
	}
	a := &assembler{
		img:     obj.New(),
		stmts:   p.Stmts,
		sym:     map[string]symbol{},
		objType: map[string]*obj.Type{},
	}
	a.prepass()
	if err := a.layoutData(); err != nil {
		return nil, err
	}
	n, err := a.layoutText()
	if err != nil {
		return nil, err
	}
	a.img.Text = make([]uint32, 0, n)
	if err := a.emit(); err != nil {
		return nil, err
	}
	if err := a.finish(); err != nil {
		return nil, err
	}
	return a.img, nil
}

// prepass registers every .struct definition, .object type annotation,
// and the .entry selection before any layout begins.
func (a *assembler) prepass() {
	for i := range a.stmts {
		s := &a.stmts[i]
		switch s.Dir {
		case DStruct:
			st := s.Args[0].Type
			a.img.Structs[st.Name] = st
		case DObject:
			a.objType[s.Args[0].Name] = s.Args[1].Type
		case DEntry:
			a.entry = s.Args[0].Name
		}
	}
}

// --- data layout ----------------------------------------------------------

func (a *assembler) align(n int) {
	for len(a.data)%n != 0 {
		a.data = append(a.data, 0)
	}
}

func (a *assembler) layoutData() error {
	a.seg = segText
	type labelSite struct {
		name string
		off  int
	}
	var labels []labelSite
	for i := range a.stmts {
		s := &a.stmts[i]
		if s.Label != "" && a.seg == segData {
			if _, dup := a.sym[s.Label]; dup {
				return errf(s.Line, "duplicate symbol %q", s.Label)
			}
			a.sym[s.Label] = symbol{obj.DataBase + uint32(len(a.data)), segData}
			labels = append(labels, labelSite{s.Label, len(a.data)})
		}
		switch {
		case s.Dir == DText:
			a.seg = segText
		case s.Dir == DData:
			a.seg = segData
		case a.seg != segData:
		case s.Dir != 0:
			if err := a.dataDirective(s); err != nil {
				return err
			}
		case s.Op != 0:
			return errf(s.Line, "instruction %q in data segment", s.Op.String())
		}
	}
	a.img.Data = a.data
	// Assign data symbol sizes: up to the next label or segment end.
	for i, l := range labels {
		end := len(a.data)
		if i+1 < len(labels) {
			end = labels[i+1].off
		}
		sym := obj.Sym{
			Name: l.name,
			Addr: obj.DataBase + uint32(l.off),
			Size: uint32(end - l.off),
			Kind: obj.SymData,
			Type: a.objType[l.name],
		}
		a.img.Syms = append(a.img.Syms, sym)
	}
	return nil
}

func (a *assembler) dataDirective(s *Stmt) error {
	switch s.Dir {
	case DWord:
		a.align(4)
		for _, o := range s.Args {
			v := o.Int
			if o.Kind == KSym {
				v = a.symbolValue(s.Line, o)
			}
			a.data = binary.LittleEndian.AppendUint32(a.data, uint32(v))
		}
	case DHalf:
		a.align(2)
		for _, o := range s.Args {
			a.data = binary.LittleEndian.AppendUint16(a.data, uint16(o.Int))
		}
	case DByte:
		for _, o := range s.Args {
			a.data = append(a.data, byte(o.Int))
		}
	case DFloat:
		a.align(4)
		for _, o := range s.Args {
			bits, ok := float32Bits(o)
			if !ok {
				return errf(s.Line, "bad .float operand %q", floatText(o))
			}
			a.data = binary.LittleEndian.AppendUint32(a.data, bits)
		}
	case DSpace:
		if len(s.Args) != 1 {
			return errf(s.Line, ".space needs one operand")
		}
		n := s.Args[0].Int
		if n < 0 || n > maxSpace {
			return errf(s.Line, "bad .space size %q", strconv.FormatInt(n, 10))
		}
		a.data = append(a.data, make([]byte, n)...)
	case DAscii:
		a.data = append(a.data, s.Args[0].Name...)
	case DAsciiz:
		a.data = append(a.data, s.Args[0].Name...)
		a.data = append(a.data, 0)
	case DAlign:
		if len(s.Args) != 1 {
			return errf(s.Line, ".align needs one operand")
		}
		n := s.Args[0].Int
		if n < 0 || n > 12 {
			return errf(s.Line, "bad .align %q", strconv.FormatInt(n, 10))
		}
		a.align(1 << n)
	case DGlobl, DStruct, DObject, DEntry:
		// Visibility is not modelled; metadata was read by prepass.
	default:
		return errf(s.Line, "directive %s not valid in data segment", s.Dir)
	}
	return nil
}

// symbolValue evaluates a symbol reference in .word to its absolute
// value. Text symbols are not laid out yet when the data segment is
// built, so unresolved references become fixups patched by finish —
// this is how function-pointer tables work.
func (a *assembler) symbolValue(line int, o Operand) int64 {
	if sym, ok := a.sym[o.Name]; ok {
		return int64(sym.addr) + o.Int
	}
	a.fixups = append(a.fixups, fixup{line: line, off: len(a.data), sym: o.Name, add: o.Int})
	return 0
}

// float32Bits returns the single-precision bits of a .float or li.s
// operand: exactly what strconv.ParseFloat(text, 32) gives for the
// operand's text rendering. ok is false when that text is not a
// single-precision float (a parse failure, or a finite value that
// overflows float32).
func float32Bits(o Operand) (bits uint32, ok bool) {
	switch {
	case o.Kind == KImm: // an integer initialiser of a float
		return math.Float32bits(float32(o.Int)), true
	case o.Name != "":
		return 0, false
	}
	x := o.F
	f := float32(x)
	if float64(f) == x || math.IsInf(x, 0) || math.IsNaN(x) {
		return math.Float32bits(f), true
	}
	// x is not a single. Rounding x and rounding its shortest decimal
	// spelling agree, except when x lies exactly halfway between two
	// singles (the spelling may sit on either side of it) or rounds to
	// infinity; then round the spelling itself.
	if !math.IsInf(float64(f), 0) && !isSingleMidpoint(x) {
		return math.Float32bits(f), true
	}
	v, err := strconv.ParseFloat(strconv.FormatFloat(x, 'g', -1, 64), 32)
	if err != nil {
		return 0, false
	}
	return math.Float32bits(float32(v)), true
}

// isSingleMidpoint reports whether x lies exactly halfway between two
// adjacent single-precision floats.
func isSingleMidpoint(x float64) bool {
	f := float32(x)
	var other float32
	if float64(f) < x {
		other = math.Nextafter32(f, float32(math.Inf(1)))
	} else {
		other = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return (float64(f)+float64(other))/2 == x
}
