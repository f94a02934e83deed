package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/bench"
	"delinq/internal/core"
	"delinq/internal/minic"
	"delinq/internal/obj"
	"delinq/internal/progen"
)

// checkParity is the structured build path's oracle: the image
// core.BuildSourceISA links from the compiler's typed statements must
// equal the one the text path assembles, asm.Assemble(minic.Compile(src))
// — every field, and byte for byte once encoded — and a source the text
// path cannot assemble must fail on the structured path with the same
// diagnostic. Sources that do not compile are skipped.
func checkParity(t *testing.T, src string, optimize bool) {
	t.Helper()
	text, err := minic.Compile(src, minic.Options{Optimize: optimize})
	if err != nil {
		return
	}
	want, wantErr := asm.Assemble(text)
	got, gotErr := core.BuildSourceISA(src, optimize, "")
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("O=%v: text path %v, structured path %v\n--- source ---\n%s", optimize, wantErr, gotErr, src)
		}
		return
	case !reflect.DeepEqual(got, want):
		t.Fatalf("O=%v: structured image differs from the text path's\n%s\n--- source ---\n%s",
			optimize, imageDiff(got, want), src)
	}
	gotBytes, err1 := got.Encode()
	wantBytes, err2 := want.Encode()
	if err1 != nil || err2 != nil || !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("O=%v: encoded images differ (%v, %v)\n--- source ---\n%s", optimize, err1, err2, src)
	}
}

// imageDiff names the first field two images disagree on.
func imageDiff(got, want *obj.Image) string {
	switch {
	case !reflect.DeepEqual(got.Text, want.Text):
		return fmt.Sprintf("Text: %d words, want %d", len(got.Text), len(want.Text))
	case !bytes.Equal(got.Data, want.Data):
		return fmt.Sprintf("Data: %d bytes, want %d", len(got.Data), len(want.Data))
	case got.Entry != want.Entry:
		return fmt.Sprintf("Entry: %#x, want %#x", got.Entry, want.Entry)
	case got.GPValue != want.GPValue:
		return fmt.Sprintf("GPValue: %#x, want %#x", got.GPValue, want.GPValue)
	case !reflect.DeepEqual(got.Syms, want.Syms):
		return fmt.Sprintf("Syms: %+v\nwant %+v", got.Syms, want.Syms)
	case !reflect.DeepEqual(got.Structs, want.Structs):
		return "Structs differ"
	}
	return "a field outside Text, Data, Entry, GPValue, Syms and Structs"
}

// paritySources are the edge cases of the literal and layout paths:
// floats that are not singles (a tie between two singles, an integer
// initialiser that rounds, an underflow, an overflow), and programs the
// assembler rejects (an oversized global, an oversized frame).
var paritySources = []string{
	"float g = 1.0000000596046448; int main() { float x; x = 1.0000000596046448; print_float(x + g); return 0; }",
	"float g = 16777217; float h = -3; int main() { print_float(g + h); return 0; }",
	"float g = 1e-50; int main() { float x; x = 3.4028235e38; print_float(g + x); return 0; }",
	"float g = 0.1; int main() { float x; x = 2.5e-7; print_float(g * x); return 0; }",
	"float f = 1e39; int main() { return 0; }",
	"int main() { float x; x = 1e39; print_float(x); return 0; }",
	"int a[20000000]; int main() { return a[1]; }",
	"int main() { int a[20000]; a[5] = 1; return a[5]; }",
	"struct p { int x; struct q *o; }; struct q { char c; struct p in; float f[3]; }; struct q g; " +
		`int main() { struct q *l = &g; l->in.x = 4; print_str("a\tb\"c\\"); return l->in.x; }`,
}

// TestStructuredBuildParity checks the structured build path against
// the text path over every benchmark at -O0 and -O, 24 generated
// programs per miss_static statement budget (12, 40 and 120) at both
// levels, and the literal and layout edge cases.
func TestStructuredBuildParity(t *testing.T) {
	for _, b := range bench.All() {
		for _, opt := range []bool{false, true} {
			checkParity(t, b.Source, opt)
		}
	}
	for _, stmts := range []int{12, 40, 120} {
		cfg := progen.DefaultConfig()
		cfg.Statements = stmts
		gen := progen.New(cfg)
		for seed := int64(1); seed <= 24; seed++ {
			src := gen.Program(seed)
			for _, opt := range []bool{false, true} {
				checkParity(t, src, opt)
			}
		}
	}
	for _, src := range paritySources {
		for _, opt := range []bool{false, true} {
			checkParity(t, src, opt)
		}
	}
}

// FuzzBuildParity feeds the parity oracle arbitrary sources, seeded
// from the compiler fuzzer's corpus: every source that compiles must
// give equal images (or equal diagnostics) on both paths.
func FuzzBuildParity(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("..", "minic", "testdata", "fuzz", "FuzzCompile", "*"))
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				if src, err := strconv.Unquote(strings.TrimSuffix(q, ")")); err == nil {
					f.Add(src)
				}
			}
		}
	}
	for _, src := range paritySources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return // keep mutated inputs cheap
		}
		for _, opt := range []bool{false, true} {
			checkParity(t, src, opt)
		}
	})
}
