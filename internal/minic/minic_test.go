package minic

import (
	"context"
	"strings"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/vm"
)

// compileRun compiles, assembles and executes src, returning the exit
// code and output.
func compileRun(t *testing.T, src string, opts Options, args ...int32) (int32, string) {
	t.Helper()
	asmText, err := Compile(src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatalf("assemble: %v\n--- assembly ---\n%s", err, asmText)
	}
	res, err := vm.RunContext(context.Background(), img, vm.Options{Args: args, CaptureOutput: true, MaxInsts: 5e7})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Exit, res.Output
}

// both runs the program in -O0 and -O and demands identical behaviour.
func both(t *testing.T, src string, wantExit int32, wantOut string, args ...int32) {
	t.Helper()
	for _, opt := range []Options{{}, {Optimize: true}} {
		exit, out := compileRun(t, src, opt, args...)
		if exit != wantExit || out != wantOut {
			t.Errorf("opts %+v: exit=%d out=%q; want exit=%d out=%q",
				opt, exit, out, wantExit, wantOut)
		}
	}
}

func TestReturnConstant(t *testing.T) {
	both(t, `int main() { return 42; }`, 42, "")
}

func TestArithmetic(t *testing.T) {
	both(t, `
int main() {
	int a = 7;
	int b = 3;
	return a*b + a/b - a%b + (a<<b) - (a>>1) + (a&b) + (a|b) + (a^b) + ~a + (-b);
}`, 7*3+7/3-7%3+(7<<3)-(7>>1)+(7&3)+(7|3)+(7^3)+^7+(-3), "")
}

func TestComparisonsAndLogic(t *testing.T) {
	both(t, `
int main() {
	int a = 5; int b = 9;
	int r = 0;
	if (a < b) r = r + 1;
	if (b > a) r = r + 2;
	if (a <= 5) r = r + 4;
	if (b >= 9) r = r + 8;
	if (a == 5) r = r + 16;
	if (a != b) r = r + 32;
	if (a < b && b < 10) r = r + 64;
	if (a > b || b == 9) r = r + 128;
	if (!(a == b)) r = r + 256;
	return r;
}`, 511, "")
}

func TestShortCircuitSideEffects(t *testing.T) {
	both(t, `
int g = 0;
int bump() { g = g + 1; return 1; }
int main() {
	int x = 0 && bump();
	int y = 1 || bump();
	if (g != 0) return 1;
	bump() && bump();
	return g;
}`, 2, "")
}

func TestWhileAndForLoops(t *testing.T) {
	both(t, `
int main() {
	int sum = 0;
	int i = 0;
	while (i < 10) { sum += i; i++; }
	for (i = 0; i < 10; i++) sum += i;
	for (;;) { break; }
	int j;
	for (j = 0; j < 100; j++) {
		if (j == 3) continue;
		if (j > 5) break;
		sum += 1;
	}
	return sum;
}`, 95, "")
}

func TestArraysAndPointers(t *testing.T) {
	both(t, `
int a[10];
int main() {
	int i;
	for (i = 0; i < 10; i++) a[i] = i * i;
	int *p = a;
	int sum = 0;
	for (i = 0; i < 10; i++) sum += p[i];
	sum += *a;
	sum += *(a + 5);
	p = &a[2];
	sum += *p;
	p++;
	sum += *p;
	return sum;
}`, 285+0+25+4+9, "")
}

func TestLocalArray2D(t *testing.T) {
	both(t, `
int main() {
	int m[4][4];
	int i; int j;
	for (i = 0; i < 4; i++)
		for (j = 0; j < 4; j++)
			m[i][j] = i * 4 + j;
	int sum = 0;
	for (i = 0; i < 4; i++)
		for (j = 0; j < 4; j++)
			sum += m[i][j];
	return sum;
}`, 120, "")
}

func TestStructsAndLinkedList(t *testing.T) {
	both(t, `
struct Node { int key; struct Node *next; };
int main() {
	struct Node *head = 0;
	int i;
	for (i = 0; i < 5; i++) {
		struct Node *n = (malloc(sizeof(struct Node)));
		n->key = i;
		n->next = head;
		head = n;
	}
	int sum = 0;
	struct Node *p = head;
	while (p) { sum += p->key; p = p->next; }
	return sum;
}`, 10, "")
}

func TestStructValueAndNesting(t *testing.T) {
	both(t, `
struct Point { int x; int y; };
struct Rect { struct Point lo; struct Point hi; };
int main() {
	struct Rect r;
	r.lo.x = 1; r.lo.y = 2; r.hi.x = 10; r.hi.y = 20;
	return (r.hi.x - r.lo.x) * (r.hi.y - r.lo.y);
}`, 162, "")
}

func TestFunctionsAndRecursion(t *testing.T) {
	both(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int main() { return fib(12); }`, 144, "")
}

func TestFourParams(t *testing.T) {
	both(t, `
int mix(int a, int b, int c, int d) { return a*1000 + b*100 + c*10 + d; }
int main() { return mix(1, 2, 3, 4); }`, 1234, "")
}

func TestGlobalsAndInit(t *testing.T) {
	both(t, `
int counter = 5;
int bias = -3;
char letter = 'A';
int main() {
	counter += 10;
	return counter + bias + letter;
}`, 15-3+65, "")
}

func TestCharsAndStrings(t *testing.T) {
	both(t, `
int slen(char *s) {
	int n = 0;
	while (s[n]) n++;
	return n;
}
int main() {
	char *msg = "hello";
	print_str(msg);
	print_char('\n');
	return slen(msg);
}`, 5, "hello\n")
}

func TestCharArrayBytes(t *testing.T) {
	both(t, `
char buf[16];
int main() {
	int i;
	for (i = 0; i < 16; i++) buf[i] = i * 3;
	int sum = 0;
	for (i = 0; i < 16; i++) sum += buf[i];
	return sum;
}`, 360, "")
}

func TestFloats(t *testing.T) {
	both(t, `
float fs[4];
int main() {
	fs[0] = 1.5;
	fs[1] = 2.25;
	fs[2] = fs[0] * fs[1];
	fs[3] = fs[2] / 0.5;
	float sum = 0.0;
	int i;
	for (i = 0; i < 4; i++) sum += fs[i];
	if (sum > 13.0 && sum < 14.0) return 1;
	return 0;
}`, 1, "")
}

func TestFloatIntConversion(t *testing.T) {
	both(t, `
int main() {
	float f = 7;
	int i = f * 2.5;
	float g = i;
	if (g == 17.0) return i;
	return 0;
}`, 17, "")
}

func TestFloatCompare(t *testing.T) {
	both(t, `
int main() {
	float a = 0.5; float b = 0.25;
	int r = 0;
	if (a > b) r += 1;
	if (b < a) r += 2;
	if (a >= 0.5) r += 4;
	if (b <= 0.25) r += 8;
	if (a == 0.5) r += 16;
	if (a != b) r += 32;
	return r;
}`, 63, "")
}

func TestPrintInt(t *testing.T) {
	both(t, `
int main() {
	print_int(123);
	print_char(' ');
	print_int(-45);
	return 0;
}`, 0, "123 -45")
}

func TestArgsSyscall(t *testing.T) {
	both(t, `
int main() {
	int n = nargs();
	int sum = 0;
	int i;
	for (i = 0; i < n; i++) sum += arg(i);
	return sum;
}`, 60, "", 10, 20, 30)
}

func TestMallocHeapUsage(t *testing.T) {
	both(t, `
int main() {
	int *a = malloc(100 * sizeof(int));
	int i;
	for (i = 0; i < 100; i++) a[i] = i;
	int sum = 0;
	for (i = 0; i < 100; i++) sum += a[i];
	free(a);
	return sum / 10;
}`, 495, "")
}

func TestAddressOfLocal(t *testing.T) {
	both(t, `
void set(int *p, int v) { *p = v; }
int main() {
	int x = 1;
	set(&x, 55);
	return x;
}`, 55, "")
}

func TestIncDecSemantics(t *testing.T) {
	both(t, `
int main() {
	int i = 5;
	int a = i++;
	int b = ++i;
	int c = i--;
	int d = --i;
	return a*1000 + b*100 + c*10 + d;
}`, 5*1000+7*100+7*10+5, "")
}

func TestPointerDifference(t *testing.T) {
	both(t, `
int a[20];
int main() {
	int *p = &a[3];
	int *q = &a[17];
	return q - p;
}`, 14, "")
}

func TestCallInExpressionSpill(t *testing.T) {
	both(t, `
int id(int x) { return x; }
int main() {
	int a[8];
	int i;
	for (i = 0; i < 8; i++) a[i] = i + 1;
	// Live temporaries (address computation) across the inner call.
	return a[id(2)] + a[3] * id(a[id(1)]);
}`, 3+4*2, "")
}

func TestNestedCallArguments(t *testing.T) {
	both(t, `
int add(int a, int b) { return a + b; }
int main() { return add(add(1, 2), add(3, add(4, 5))); }`, 15, "")
}

func TestVoidFunction(t *testing.T) {
	both(t, `
int g;
void poke(int v) { g = v; }
int main() { poke(9); return g; }`, 9, "")
}

func TestFloatFunctionReturn(t *testing.T) {
	both(t, `
float half(float x) { return x / 2.0; }
int main() {
	float r = half(9.0);
	if (r == 4.5) return 1;
	return 0;
}`, 1, "")
}

func TestPrintFloat(t *testing.T) {
	both(t, `
int main() {
	print_float(2.5);
	return 0;
}`, 0, "2.5")
}

func TestGlobalFloatInit(t *testing.T) {
	both(t, `
float pi = 3.5;
int main() {
	if (pi == 3.5) return 7;
	return 0;
}`, 7, "")
}

func TestCompoundAssignOnMemory(t *testing.T) {
	both(t, `
struct S { int v; };
int a[4];
int main() {
	struct S s;
	s.v = 10;
	s.v += 5;
	s.v -= 2;
	s.v *= 3;
	s.v /= 2;
	a[1] = 7;
	a[1] += s.v;
	return a[1];
}`, 7+19, "")
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no main", `int helper() { return 1; }`, "no main"},
		{"undefined var", `int main() { return x; }`, "undefined variable"},
		{"undefined func", `int main() { return f(); }`, "undefined function"},
		{"bad arg count", `int f(int a) { return a; } int main() { return f(); }`, "expects 1"},
		{"redeclared", `int main() { int x; int x; return 0; }`, "redeclared"},
		{"bad member", `struct S { int a; }; int main() { struct S s; return s.b; }`, "no field"},
		{"deref int", `int main() { int x; return *x; }`, "dereferencing a non-pointer"},
		{"assign rvalue", `int main() { 3 = 4; return 0; }`, "non-lvalue"},
		{"void var", `int main() { void v; return 0; }`, "void type"},
		{"too many params", `int f(int a, int b, int c, int d, int e) { return 0; } int main() { return 0; }`, "more than 4"},
		{"builtin shadow", `int malloc(int n) { return n; } int main() { return 0; }`, "shadows a builtin"},
		{"incomplete struct", `struct T; int main() { return 0; }`, "expected"},
		{"syntax", `int main() { return 1 +; }`, "unexpected token"},
		{"lex", "int main() { return `; }", "unexpected character"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src, Options{})
			if err == nil {
				t.Fatal("compile succeeded; want error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestOptimizedUsesFewerLoads(t *testing.T) {
	src := `
int main() {
	int sum = 0;
	int i;
	for (i = 0; i < 1000; i++) sum += i;
	return sum % 100;
}`
	count := func(opt bool) int64 {
		asmText, err := Compile(src, Options{Optimize: opt})
		if err != nil {
			t.Fatal(err)
		}
		img, err := asm.Assemble(asmText)
		if err != nil {
			t.Fatal(err)
		}
		res, err := vm.RunContext(context.Background(), img, vm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Exit != int32(499500%100) {
			t.Fatalf("exit = %d", res.Exit)
		}
		return res.DataAccesses
	}
	o0, o1 := count(false), count(true)
	if o1*3 > o0 {
		t.Errorf("optimised code not much leaner: O0=%d O1=%d data accesses", o0, o1)
	}
}

func TestMetadataEmitted(t *testing.T) {
	asmText, err := Compile(`
struct Node { int k; struct Node *next; };
int table[64];
int main() {
	struct Node n;
	n.k = 1;
	int local = 2;
	return n.k + local;
}`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		".struct Node, k:0:int, next:4:ptr:struct:Node",
		".object table, arr:64:int",
		".func main, frame=",
		".local n:",
		".local local:",
		".entry __start",
	} {
		if !strings.Contains(asmText, want) {
			t.Errorf("assembly missing %q", want)
		}
	}
	img, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := img.Lookup("main")
	if !ok || len(m.Locals) < 2 {
		t.Errorf("main symbol metadata: %+v", m)
	}
}

func TestComments(t *testing.T) {
	both(t, `
// line comment
/* block
   comment */
int main() { return 3; /* trailing */ }`, 3, "")
}

func TestFloatSpillAcrossCall(t *testing.T) {
	// A float temporary live across a call must be spilled with s.s/l.s.
	both(t, `
float fs[4];
int id(int x) { return x; }
int main() {
	fs[0] = 1.5;
	fs[1] = 2.5;
	float r = fs[0] + fs[1] * id(2);
	if (r == 6.5) return 1;
	return 0;
}`, 1, "")
}

func TestPointerCompoundAssign(t *testing.T) {
	both(t, `
int a[32];
int main() {
	int i;
	for (i = 0; i < 32; i++) a[i] = i;
	int *p = a;
	p += 5;          // pointer compound add scales by 4
	int x = *p;      // 5
	p -= 2;
	x += *p;         // 3
	return x;
}`, 8, "")
}

func TestNestedStructArrayMix(t *testing.T) {
	both(t, `
struct Inner { int v[4]; };
struct Outer { int tag; struct Inner in; };
struct Outer os[3];
int main() {
	int i; int j;
	for (i = 0; i < 3; i++) {
		os[i].tag = i;
		for (j = 0; j < 4; j++) os[i].in.v[j] = i * 10 + j;
	}
	return os[2].in.v[3] + os[1].tag;
}`, 24, "")
}

func TestFloatArgumentPassing(t *testing.T) {
	both(t, `
float scale(float x, float y) { return x * y; }
int main() {
	float r = scale(2.5, 4.0);
	if (r == 10.0) return 1;
	return 0;
}`, 1, "")
}

func TestDivModByNegative(t *testing.T) {
	both(t, `
int main() {
	int a = -17;
	int b = 5;
	return (a / b) * 100 + (a % b) + 200;  // -300 + -2 + 200
}`, -102, "")
}

func TestGlobalPointerVariable(t *testing.T) {
	both(t, `
int data[8];
int *cursor;
int main() {
	int i;
	for (i = 0; i < 8; i++) data[i] = i * i;
	cursor = data;
	cursor += 3;
	int a = *cursor;      // 9
	cursor++;
	return a + *cursor;   // 9 + 16
}`, 25, "")
}

func TestWhileWithComplexCondition(t *testing.T) {
	both(t, `
int main() {
	int i = 0;
	int j = 20;
	int n = 0;
	while (i < 10 && j > 5 || n == 0) {
		i++;
		j -= 2;
		n++;
		if (n > 50) break;
	}
	return n;
}`, 8, "")
}
