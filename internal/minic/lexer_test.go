package minic

import (
	"errors"
	"testing"
)

// lexAll scans the entire source into tokens ending in EOF, or returns
// the first lexical error.
func lexAll(src string) ([]Token, error) {
	l := newLexer(src)
	var out []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

func lex(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := lexAll(src)
	if err != nil {
		t.Fatalf("lexAll(%q): %v", src, err)
	}
	return toks
}

func TestLexKeywordsAndIdents(t *testing.T) {
	toks := lex(t, "int intx while whiley struct _s s9")
	want := []TokKind{KwInt, IDENT, KwWhile, IDENT, KwStruct, IDENT, IDENT, EOF}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[1].Text != "intx" || toks[3].Text != "whiley" {
		t.Error("identifier text lost")
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind TokKind
		i    int64
		f    float64
	}{
		{"0", INTLIT, 0, 0},
		{"12345", INTLIT, 12345, 0},
		{"0x1F", INTLIT, 31, 0},
		{"0XFF", INTLIT, 255, 0},
		{"1.5", FLOATLIT, 0, 1.5},
		{"2.25e2", FLOATLIT, 0, 225},
		{"1e3", FLOATLIT, 0, 1000},
		{"3e-1", FLOATLIT, 0, 0.3},
	}
	for _, c := range cases {
		toks := lex(t, c.src)
		if toks[0].Kind != c.kind {
			t.Errorf("%q kind = %v, want %v", c.src, toks[0].Kind, c.kind)
			continue
		}
		if c.kind == INTLIT && toks[0].Int != c.i {
			t.Errorf("%q = %d, want %d", c.src, toks[0].Int, c.i)
		}
		if c.kind == FLOATLIT && toks[0].Flt != c.f {
			t.Errorf("%q = %v, want %v", c.src, toks[0].Flt, c.f)
		}
	}
}

func TestLexCharAndString(t *testing.T) {
	toks := lex(t, `'a' '\n' '\\' '\0' "hi\tthere\n" ""`)
	if toks[0].Int != 'a' || toks[1].Int != '\n' || toks[2].Int != '\\' || toks[3].Int != 0 {
		t.Errorf("char literals = %d %d %d %d", toks[0].Int, toks[1].Int, toks[2].Int, toks[3].Int)
	}
	if toks[4].Str != "hi\tthere\n" {
		t.Errorf("string = %q", toks[4].Str)
	}
	if toks[5].Str != "" {
		t.Errorf("empty string = %q", toks[5].Str)
	}
}

func TestLexOperators(t *testing.T) {
	toks := lex(t, "-> ++ -- += -= *= /= && || == != <= >= << >> + - * / % & | ^ ~ ! < > = . , ; ( ) { } [ ]")
	want := []TokKind{
		Arrow, Inc, Dec, AddAssign, SubAssign, MulAssign, DivAssign,
		AndAnd, OrOr, Eq, Ne, Le, Ge, Shl, Shr,
		Plus, Minus, Star, Slash, Percent, Amp, Pipe, Caret, Tilde, Not,
		Lt, Gt, Assign, Dot, Comma, Semi, LParen, RParen, LBrace, RBrace,
		LBrack, RBrack, EOF,
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := lex(t, "a // line comment\nb /* block\n comment */ c")
	if len(toks) != 4 { // a b c EOF
		t.Fatalf("tokens = %v", toks)
	}
	if toks[2].Line != 3 {
		t.Errorf("line tracking through block comment = %d", toks[2].Line)
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks := lex(t, "a\nb\n\nc")
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[2].Line != 4 {
		t.Errorf("lines = %d %d %d", toks[0].Line, toks[1].Line, toks[2].Line)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"`", "\"unterminated", "'a", "/* unterminated", `"bad \q escape"`} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) succeeded", src)
		}
	}
}

// TestParseLexErrorWins pins the error contract of the streaming
// parser: a lexical error anywhere in the source is reported over a
// parse error that comes before it, as when the whole source was lexed
// before parsing.
func TestParseLexErrorWins(t *testing.T) {
	const parseErr = "int x = ;\n" // line 1: not a constant initialiser
	for _, c := range []struct {
		name, src string
		line      int
		msg       string
	}{
		{"block comment", parseErr + "int y;\n/* never closed\nint z;\n", 5, "unterminated block comment"},
		{"stray char", parseErr + "int main() { return 1 @ 2; }\n", 2, "unexpected character '@'"},
		{"integer", parseErr + "int main() { return 99999999999999999999; }\n", 2, `bad integer literal "99999999999999999999"`},
		{"escape", parseErr + "int main() { return '\\q'; }\n", 2, `unknown escape \q`},
		{"char literal", parseErr + "int main() { return 'ab'; }\n", 2, "unterminated char literal"},
		{"string literal", parseErr + "int main() { print_str(\"abc);\n}\n", 2, "unterminated string literal"},
		{"after a clean parse", "int main() { return 0; }\n@\n", 2, "unexpected character '@'"},
		{"parse error only", parseErr + "int main() { return 0; }\n", 1, "global initialiser must be a constant"},
	} {
		_, err := Parse(c.src)
		var e *Error
		if !errors.As(err, &e) || e.Line != c.line || e.Msg != c.msg {
			t.Errorf("%s: Parse error %v, want line %d: %s", c.name, err, c.line, c.msg)
		}
	}
}

func TestParseStructLayout(t *testing.T) {
	prog, err := Parse(`
struct Mixed { char c; int i; char d; float f; };
int main() { return 0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Structs["Mixed"]
	if st == nil || len(st.Fields) != 4 {
		t.Fatalf("struct = %+v", st)
	}
	// char c at 0; int i aligned to 4; char d at 8; float f aligned to 12.
	offs := []int{0, 4, 8, 12}
	for i, want := range offs {
		if st.Fields[i].Offset != want {
			t.Errorf("field %s offset = %d, want %d",
				st.Fields[i].Name, st.Fields[i].Offset, want)
		}
	}
	if st.Size() != 16 {
		t.Errorf("struct size = %d", st.Size())
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse(`int main() { return 1 + 2 * 3 < 4 << 1 & 7; }`)
	if err != nil {
		t.Fatal(err)
	}
	// & is loosest: (expr) & 7.
	ret := prog.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	top, ok := ret.X.(*Binary)
	if !ok || top.Op != Amp {
		t.Fatalf("top = %#v", ret.X)
	}
	// Left of & is the comparison; < binds looser than << and +/*.
	cmp, ok := top.X.(*Binary)
	if !ok || cmp.Op != Lt {
		t.Fatalf("cmp = %#v", top.X)
	}
	add, ok := cmp.X.(*Binary)
	if !ok || add.Op != Plus {
		t.Fatalf("lhs of < = %#v", cmp.X)
	}
	mul, ok := add.Y.(*Binary)
	if !ok || mul.Op != Star {
		t.Fatalf("rhs of + = %#v", add.Y)
	}
	shl, ok := cmp.Y.(*Binary)
	if !ok || shl.Op != Shl {
		t.Fatalf("rhs of < = %#v", cmp.Y)
	}
}

func TestParseDanglingElse(t *testing.T) {
	prog, err := Parse(`int main() { if (1) if (2) return 3; else return 4; return 5; }`)
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Funcs[0].Body.Stmts[0].(*IfStmt)
	if outer.Else != nil {
		t.Error("else bound to outer if")
	}
	inner := outer.Then.(*IfStmt)
	if inner.Else == nil {
		t.Error("else not bound to inner if")
	}
}

func TestParseMultiDimArray(t *testing.T) {
	prog, err := Parse(`int m[3][4][5]; int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	ty := prog.Globals[0].Ty
	if ty.String() != "arr:3:arr:4:arr:5:int" {
		t.Errorf("type = %v", ty)
	}
	if ty.Size() != 3*4*5*4 {
		t.Errorf("size = %d", ty.Size())
	}
}

func TestParseCommaGlobals(t *testing.T) {
	prog, err := Parse(`int a, b, c = 5; int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 3 {
		t.Fatalf("globals = %d", len(prog.Globals))
	}
	if prog.Globals[2].InitInt == nil || *prog.Globals[2].InitInt != 5 {
		t.Error("comma-list initialiser lost")
	}
}

func TestParsePostfixChains(t *testing.T) {
	prog, err := Parse(`
struct S { int v; struct S *next; };
int main() {
	struct S *p = 0;
	return p->next->next->v;
}`)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Funcs[0].Body.Stmts[1].(*ReturnStmt)
	m1, ok := ret.X.(*Member)
	if !ok || m1.Name != "v" {
		t.Fatalf("outer member = %#v", ret.X)
	}
	m2, ok := m1.X.(*Member)
	if !ok || m2.Name != "next" || !m2.Arrow {
		t.Fatalf("chain = %#v", m1.X)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int main() { return 1 + ; }",
		"int main() { if 1 return 0; }",
		"int main() { int a[0]; return 0; }",
		"int main() { int a[-1]; return 0; }",
		"struct S { int; };",
		"int main() {",
		"int f(int, int) { return 0; }",
		"int 9bad() { return 0; }",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse succeeded on %q", src)
		}
	}
}
