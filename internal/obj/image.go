package obj

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"sort"

	"delinq/internal/isa"
)

// Default memory layout. Text and data live in disjoint regions; the heap
// grows upward from the end of static data via the sbrk syscall and the
// stack grows downward from StackTop.
const (
	TextBase uint32 = 0x00400000
	DataBase uint32 = 0x10000000
	StackTop uint32 = 0x7ffff000
	// GPBias places $gp in the middle of the 64 KB directly addressable
	// small-data window, as conventional MIPS toolchains do.
	GPBias uint32 = 0x8000
)

// SymKind distinguishes function symbols from data symbols.
type SymKind int

const (
	SymFunc SymKind = iota
	SymData
)

// Local describes one stack-resident local variable or spilled parameter
// of a function: its byte offset from $sp within the function body and its
// source type. The static BDH baseline uses this to classify stack loads.
type Local struct {
	Name   string
	Offset int32
	Type   *Type
}

// Sym is one symbol-table entry.
type Sym struct {
	Name      string
	Addr      uint32
	Size      uint32
	Kind      SymKind
	Type      *Type   // data symbols: source type
	Locals    []Local // function symbols: frame layout
	FrameSize int32   // function symbols: total frame bytes
}

// Image is a fully linked program: code, initialised data, and symbols.
type Image struct {
	Entry    uint32
	Text     []uint32 // machine words, based at TextBase
	ISA      string   // machine description name; "" means "mips"
	Data     []byte   // initialised data, based at DataBase
	BSS      uint32   // zero-initialised bytes following Data
	GPValue  uint32   // runtime value of $gp (small-data anchor on gp-less ISAs)
	Syms     []Sym
	Structs  map[string]*Type // struct tag -> definition
	SrcNames map[uint32]string
}

// ISAName returns the image's machine description name, after
// isa.Canonical: an image from before machine descriptions existed
// names "mips".
func (im *Image) ISAName() string { return isa.Canonical(im.ISA) }

// New returns an empty image with the default layout.
func New() *Image {
	return &Image{
		GPValue: DataBase + GPBias,
		Structs: map[string]*Type{},
	}
}

// TextEnd returns the first address past the text segment.
func (im *Image) TextEnd() uint32 { return TextBase + uint32(len(im.Text))*4 }

// Validate checks that the image is executable at all: a non-empty text
// segment and an aligned entry point inside it. DecodeImage stays
// lenient (the wire format round-trips arbitrary images); Validate is
// the gate execution paths apply before running one.
func (im *Image) Validate() error {
	if len(im.Text) == 0 {
		return fmt.Errorf("obj: image has an empty text segment")
	}
	if im.Entry < TextBase || im.Entry >= im.TextEnd() || im.Entry%4 != 0 {
		return fmt.Errorf("obj: entry point %#x outside text [%#x,%#x)",
			im.Entry, TextBase, im.TextEnd())
	}
	return nil
}

// DataEnd returns the first address past static data (including BSS); the
// heap begins here.
func (im *Image) DataEnd() uint32 { return DataBase + uint32(len(im.Data)) + im.BSS }

// Word returns the text word at address pc.
func (im *Image) Word(pc uint32) (uint32, bool) {
	if pc < TextBase || pc >= im.TextEnd() || pc%4 != 0 {
		return 0, false
	}
	return im.Text[(pc-TextBase)/4], true
}

// Lookup returns the symbol with the given name.
func (im *Image) Lookup(name string) (*Sym, bool) {
	for i := range im.Syms {
		if im.Syms[i].Name == name {
			return &im.Syms[i], true
		}
	}
	return nil, false
}

// DataSymAt returns the data symbol covering the given data address.
func (im *Image) DataSymAt(addr uint32) (*Sym, bool) {
	for i := range im.Syms {
		s := &im.Syms[i]
		if s.Kind == SymData && addr >= s.Addr && addr < s.Addr+s.Size {
			return s, true
		}
	}
	return nil, false
}

// Funcs returns the function symbols in address order.
func (im *Image) Funcs() []*Sym {
	var fns []*Sym
	for i := range im.Syms {
		if im.Syms[i].Kind == SymFunc {
			fns = append(fns, &im.Syms[i])
		}
	}
	sort.Slice(fns, func(a, b int) bool { return fns[a].Addr < fns[b].Addr })
	return fns
}

// The wire format flattens types to their compact string notation: the
// in-memory *Type graph is cyclic for self-referential structs (a list
// node pointing at its own struct type), which gob cannot encode.
type wireLocal struct {
	Name   string
	Offset int32
	Type   string
}

type wireSym struct {
	Name      string
	Addr      uint32
	Size      uint32
	Kind      SymKind
	Type      string
	Locals    []wireLocal
	FrameSize int32
}

type wireField struct {
	Name   string
	Offset int
	Type   string
}

type wireStruct struct {
	Name   string
	Fields []wireField
}

type wireSrcName struct {
	Addr uint32
	Name string
}

// wireImage carries the image's maps as key-sorted slices, so equal
// images encode to equal bytes (gob walks a map in its random order).
// The map fields are how images encoded before that carried them: Encode
// leaves them empty, and DecodeImage still reads them.
type wireImage struct {
	Entry       uint32
	Text        []uint32
	ISA         string
	Data        []byte
	BSS         uint32
	GPValue     uint32
	Syms        []wireSym
	Structs     map[string][]wireField
	SrcNames    map[uint32]string
	StructList  []wireStruct
	SrcNameList []wireSrcName
}

func typeString(t *Type) string {
	if t == nil {
		return ""
	}
	return t.String()
}

// Encode serialises the image.
func (im *Image) Encode() ([]byte, error) {
	w := wireImage{
		Entry: im.Entry, Text: im.Text, ISA: im.ISA, Data: im.Data, BSS: im.BSS,
		GPValue: im.GPValue,
	}
	for name, st := range im.Structs {
		ws := wireStruct{Name: name}
		for _, f := range st.Fields {
			ws.Fields = append(ws.Fields, wireField{f.Name, f.Offset, typeString(f.Type)})
		}
		w.StructList = append(w.StructList, ws)
	}
	sort.Slice(w.StructList, func(i, j int) bool { return w.StructList[i].Name < w.StructList[j].Name })
	for addr, name := range im.SrcNames {
		w.SrcNameList = append(w.SrcNameList, wireSrcName{addr, name})
	}
	sort.Slice(w.SrcNameList, func(i, j int) bool { return w.SrcNameList[i].Addr < w.SrcNameList[j].Addr })
	for _, s := range im.Syms {
		ws := wireSym{
			Name: s.Name, Addr: s.Addr, Size: s.Size, Kind: s.Kind,
			Type: typeString(s.Type), FrameSize: s.FrameSize,
		}
		for _, l := range s.Locals {
			ws.Locals = append(ws.Locals, wireLocal{l.Name, l.Offset, typeString(l.Type)})
		}
		w.Syms = append(w.Syms, ws)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("obj: encode: %w", err)
	}
	return buf.Bytes(), nil
}

func parseTypeOrNil(s string, structs map[string]*Type) (*Type, error) {
	if s == "" {
		return nil, nil
	}
	return ParseType(s, structs)
}

// DecodeImage deserialises an image produced by Encode.
func DecodeImage(b []byte) (*Image, error) {
	var w wireImage
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return nil, fmt.Errorf("obj: decode: %w", err)
	}
	im := &Image{
		Entry: w.Entry, Text: w.Text, ISA: w.ISA, Data: w.Data, BSS: w.BSS,
		GPValue: w.GPValue, SrcNames: w.SrcNames,
		Structs: map[string]*Type{},
	}
	for _, ws := range w.StructList {
		if w.Structs == nil {
			w.Structs = map[string][]wireField{}
		}
		w.Structs[ws.Name] = append(w.Structs[ws.Name], ws.Fields...)
	}
	for _, sn := range w.SrcNameList {
		if im.SrcNames == nil {
			im.SrcNames = map[uint32]string{}
		}
		im.SrcNames[sn.Addr] = sn.Name
	}
	// Struct resolution is two-phase so self-referential structs decode
	// into the same cyclic graphs Encode started from.
	for name := range w.Structs {
		im.Structs[name] = &Type{Kind: KindStruct, Name: name}
	}
	for name, wfs := range w.Structs {
		st := im.Structs[name]
		for _, wf := range wfs {
			ft, err := ParseType(wf.Type, im.Structs)
			if err != nil {
				return nil, err
			}
			st.Fields = append(st.Fields, Field{wf.Name, wf.Offset, ft})
		}
	}
	for _, ws := range w.Syms {
		t, err := parseTypeOrNil(ws.Type, im.Structs)
		if err != nil {
			return nil, err
		}
		s := Sym{
			Name: ws.Name, Addr: ws.Addr, Size: ws.Size, Kind: ws.Kind,
			Type: t, FrameSize: ws.FrameSize,
		}
		for _, wl := range ws.Locals {
			lt, err := parseTypeOrNil(wl.Type, im.Structs)
			if err != nil {
				return nil, err
			}
			s.Locals = append(s.Locals, Local{wl.Name, wl.Offset, lt})
		}
		im.Syms = append(im.Syms, s)
	}
	return im, nil
}

// WriteFile serialises the image to a file.
func (im *Image) WriteFile(path string) error {
	b, err := im.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
