package obj

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func nodeStruct() *Type {
	node := &Type{Kind: KindStruct, Name: "Node"}
	node.Fields = []Field{
		{Name: "key", Offset: 0, Type: TypeInt},
		{Name: "val", Offset: 4, Type: TypeFloat},
		{Name: "next", Offset: 8, Type: PointerTo(node)},
	}
	return node
}

func TestTypeSize(t *testing.T) {
	cases := []struct {
		t    *Type
		want int
	}{
		{TypeInt, 4},
		{TypeChar, 1},
		{TypeFloat, 4},
		{TypeVoid, 0},
		{PointerTo(TypeChar), 4},
		{ArrayOf(10, TypeInt), 40},
		{ArrayOf(3, ArrayOf(5, TypeFloat)), 60},
		{nodeStruct(), 12},
		{&Type{Kind: KindStruct, Name: "odd", Fields: []Field{{"c", 0, TypeChar}}}, 4},
		{nil, 4},
	}
	for _, c := range cases {
		if got := c.t.Size(); got != c.want {
			t.Errorf("Size(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestTypeStringParseRoundtrip(t *testing.T) {
	structs := map[string]*Type{"Node": nodeStruct()}
	cases := []string{
		"int", "char", "float", "void",
		"ptr:int", "ptr:ptr:char", "arr:16:int", "arr:4:arr:4:float",
		"ptr:struct:Node", "struct:Node", "arr:8:ptr:struct:Node",
	}
	for _, s := range cases {
		ty, err := ParseType(s, structs)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", s, err)
		}
		if got := ty.String(); got != s {
			t.Errorf("round trip of %q gave %q", s, got)
		}
	}
}

func TestParseTypeErrors(t *testing.T) {
	for _, s := range []string{"", "quux", "arr:x:int", "arr:10", "ptr:bogus", "struct:"} {
		if _, err := ParseType(s, nil); err == nil {
			t.Errorf("ParseType(%q) succeeded; want error", s)
		}
	}
}

func TestParseTypeUnknownStructDegrades(t *testing.T) {
	ty, err := ParseType("struct:Mystery", map[string]*Type{})
	if err != nil {
		t.Fatal(err)
	}
	if ty.Kind != KindStruct || ty.Name != "Mystery" || len(ty.Fields) != 0 {
		t.Errorf("got %+v", ty)
	}
}

func TestFieldAt(t *testing.T) {
	n := nodeStruct()
	if f := n.FieldAt(0); f == nil || f.Name != "key" {
		t.Errorf("FieldAt(0) = %v", f)
	}
	if f := n.FieldAt(5); f == nil || f.Name != "val" {
		t.Errorf("FieldAt(5) = %v", f)
	}
	if f := n.FieldAt(8); f == nil || f.Name != "next" {
		t.Errorf("FieldAt(8) = %v", f)
	}
	if f := n.FieldAt(100); f != nil {
		t.Errorf("FieldAt(100) = %v, want nil", f)
	}
	if f := TypeInt.FieldAt(0); f != nil {
		t.Errorf("int FieldAt = %v, want nil", f)
	}
}

func buildTestImage() *Image {
	im := New()
	node := nodeStruct()
	im.Structs["Node"] = node
	im.Text = []uint32{0x27bdffe0, 0xafbf001c, 0x03e00008, 0, 0x23bd0020}
	im.Data = []byte{1, 2, 3, 4, 0, 0, 0, 0}
	im.BSS = 16
	im.Entry = TextBase
	im.Syms = []Sym{
		{
			Name: "main", Addr: TextBase, Size: 12, Kind: SymFunc,
			FrameSize: 32,
			Locals: []Local{
				{Name: "x", Offset: 8, Type: TypeInt},
				{Name: "p", Offset: 12, Type: PointerTo(node)},
			},
		},
		{Name: "helper", Addr: TextBase + 12, Size: 8, Kind: SymFunc},
		{Name: "tbl", Addr: DataBase, Size: 8, Kind: SymData, Type: ArrayOf(2, TypeInt)},
		{Name: "zbuf", Addr: DataBase + 8, Size: 16, Kind: SymData, Type: ArrayOf(16, TypeChar)},
	}
	im.SrcNames = map[uint32]string{TextBase: "main.c:1"}
	return im
}

func TestImageLookups(t *testing.T) {
	im := buildTestImage()
	if s, ok := im.Lookup("main"); !ok || s.Kind != SymFunc {
		t.Fatalf("Lookup(main) = %v, %v", s, ok)
	}
	if _, ok := im.Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
	if s, ok := im.DataSymAt(DataBase + 4); !ok || s.Name != "tbl" {
		t.Errorf("DataSymAt = %v, %v; want tbl", s, ok)
	}
	if s, ok := im.DataSymAt(DataBase + 9); !ok || s.Name != "zbuf" {
		t.Errorf("DataSymAt = %v, %v; want zbuf", s, ok)
	}
	if _, ok := im.DataSymAt(DataBase + 1000); ok {
		t.Error("DataSymAt past end succeeded")
	}
	fns := im.Funcs()
	if len(fns) != 2 || fns[0].Name != "main" || fns[1].Name != "helper" {
		t.Errorf("Funcs = %v", fns)
	}
	if w, ok := im.Word(TextBase + 4); !ok || w != 0xafbf001c {
		t.Errorf("Word = %#x, %v", w, ok)
	}
	if _, ok := im.Word(TextBase + 2); ok {
		t.Error("unaligned Word succeeded")
	}
	if got := im.DataEnd(); got != DataBase+8+16 {
		t.Errorf("DataEnd = %#x", got)
	}
}

// TestEncodeReproducible: an image with several structs and source
// names encodes to the same bytes every time, whatever order its maps
// iterate in.
func TestEncodeReproducible(t *testing.T) {
	im := New()
	for i, name := range []string{"a", "b", "c", "d"} {
		st := &Type{Kind: KindStruct, Name: name}
		st.Fields = []Field{{Name: "v", Offset: 0, Type: TypeInt}, {Name: "n", Offset: 4, Type: PointerTo(st)}}
		im.Structs[name] = st
		if im.SrcNames == nil {
			im.SrcNames = map[uint32]string{}
		}
		im.SrcNames[TextBase+uint32(4*i)] = name + ".c"
	}
	first, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b, err := im.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, first) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
	got, err := DecodeImage(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Structs) != 4 || got.Structs["c"].Fields[1].Type.Elem != got.Structs["c"] ||
		!reflect.DeepEqual(got.SrcNames, im.SrcNames) {
		t.Errorf("decoded structs %v, source names %v", got.Structs, got.SrcNames)
	}
}

// TestDecodeMapEncodedImage: an image encoded when the wire format
// still carried its structs as a map (the committed fuzz seed) decodes
// with them intact, and survives a round trip through today's format.
func TestDecodeMapEncodedImage(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeImage", "encoded_image"))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "[]byte(")
	b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	im, err := DecodeImage([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	node := im.Structs["node"]
	if node == nil || len(node.Fields) != 2 || node.Fields[1].Type.Elem != node {
		t.Errorf("struct node decoded as %+v", node)
	}
	b2, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	again, err := DecodeImage(b2)
	if err != nil || !reflect.DeepEqual(again, im) {
		t.Errorf("round trip through today's format: %v, equal %v", err, reflect.DeepEqual(again, im))
	}
}

func TestImageEncodeDecodeRoundtrip(t *testing.T) {
	im := buildTestImage()
	b, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImage(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != im.Entry || got.BSS != im.BSS || got.GPValue != im.GPValue {
		t.Errorf("header mismatch: %+v vs %+v", got, im)
	}
	if len(got.Text) != len(im.Text) || got.Text[0] != im.Text[0] {
		t.Error("text mismatch")
	}
	if len(got.Syms) != len(im.Syms) {
		t.Fatalf("syms = %d, want %d", len(got.Syms), len(im.Syms))
	}
	m, _ := got.Lookup("main")
	if len(m.Locals) != 2 || m.Locals[1].Type.String() != "ptr:struct:Node" {
		t.Errorf("main locals decoded wrong: %+v", m.Locals)
	}
	// Self-referential struct must come back as the same cyclic graph.
	node := got.Structs["Node"]
	if node == nil || len(node.Fields) != 3 {
		t.Fatalf("Node struct decoded wrong: %+v", node)
	}
	if node.Fields[2].Type.Elem != node {
		t.Error("self-referential struct did not reconnect to itself")
	}
	tbl, _ := got.Lookup("tbl")
	if tbl.Type.String() != "arr:2:int" {
		t.Errorf("tbl type = %v", tbl.Type)
	}
	if got.SrcNames[TextBase] != "main.c:1" {
		t.Error("SrcNames lost")
	}
}

func TestImageFileRoundtrip(t *testing.T) {
	im := buildTestImage()
	path := t.TempDir() + "/prog.img"
	if err := im.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImage(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != im.Entry || len(got.Text) != len(im.Text) {
		t.Error("file round trip mismatch")
	}
}

// Property: Size is always non-negative and pointer/array composition
// behaves multiplicatively for arrays.
func TestQuickArraySize(t *testing.T) {
	f := func(n uint8, deep bool) bool {
		elem := TypeInt
		if deep {
			elem = &Type{Kind: KindArray, Len: 3, Elem: TypeFloat}
		}
		a := ArrayOf(int(n), elem)
		return a.Size() == int(n)*elem.Size() && a.Size() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
