package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/cache"
	"delinq/internal/trace"
	"delinq/internal/vm"
)

// TestSimulateMemBudgetIsStageError: a source that outgrows the VM's
// memory budget fails as a simulate-stage StageError with the
// ErrMemBudget sentinel intact through the chain, so the daemon (and
// every other SimulateCtx caller) sees an ordinary pipeline failure,
// never an OOMing host process.
func TestSimulateMemBudgetIsStageError(t *testing.T) {
	// A malloc loop touching one byte per page: the VM's lazy pages
	// materialise until the run outgrows vm.DefaultMaxMem (256 MiB).
	src := `
int main() {
	int i;
	for (i = 0; i < 1000000; i = i + 1) {
		char *p = malloc(4096);
		p[0] = 1;
	}
	return 0;
}`
	img, err := BuildSourceISA(src, false, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = SimulateCtx(context.Background(), img, nil)
	if !errors.Is(err, vm.ErrMemBudget) {
		t.Fatalf("err = %v, want vm.ErrMemBudget through the chain", err)
	}
	if !errors.Is(err, &StageError{Stage: StageSimulate}) {
		t.Fatalf("err = %v, want simulate-stage provenance", err)
	}
}

func TestStageErrorFormatting(t *testing.T) {
	cause := errors.New("boom")
	se := WrapStage("181.mcf", StageSimulate, cause)
	if got := se.Error(); got != "181.mcf: simulate: boom" {
		t.Errorf("Error() = %q", got)
	}
	anon := WrapStage("", StageImage, cause)
	if got := anon.Error(); got != "image: boom" {
		t.Errorf("benchmark-less Error() = %q", got)
	}
	if !errors.Is(se, cause) {
		t.Error("Unwrap lost the cause")
	}
}

func TestStageErrorNilAndDoubleWrap(t *testing.T) {
	if WrapStage("b", StageCompile, nil) != nil {
		t.Error("WrapStage(nil) != nil (typed-nil footgun)")
	}
	inner := WrapStage("b", StagePattern, errors.New("x"))
	if outer := WrapStage("other", StageSimulate, inner); outer != inner {
		t.Error("wrapping a StageError re-wrapped instead of passing through")
	}
	if outer := WrapStage("", StageSimulate, inner); outer != inner {
		t.Error("wrapping a StageError without a benchmark re-wrapped it")
	}
	// An unnamed StageError (a lowering failure, say) wrapped by a
	// caller that knows the benchmark takes that name and keeps its
	// stage and cause, without a second layer.
	cause := errors.New("y")
	anon := &StageError{Stage: StageLower, Err: cause}
	named, ok := WrapStage("129.compress", StageCompile, anon).(*StageError)
	if !ok || named.Benchmark != "129.compress" || named.Stage != StageLower || named.Err != cause {
		t.Errorf("named unnamed StageError = %#v, want 129.compress at the lower stage around the cause", named)
	}
	if anon.Benchmark != "" {
		t.Error("naming a StageError mutated the original")
	}
}

func TestStageErrorWildcardIs(t *testing.T) {
	err := WrapStage("181.mcf", StageSimulate, errors.New("boom"))
	cases := []struct {
		target *StageError
		want   bool
	}{
		{&StageError{}, true},
		{&StageError{Stage: StageSimulate}, true},
		{&StageError{Benchmark: "181.mcf"}, true},
		{&StageError{Benchmark: "181.mcf", Stage: StageSimulate}, true},
		{&StageError{Stage: StagePattern}, false},
		{&StageError{Benchmark: "130.li"}, false},
	}
	for _, c := range cases {
		if got := errors.Is(err, c.target); got != c.want {
			t.Errorf("errors.Is(err, %+v) = %v, want %v", c.target, got, c.want)
		}
	}
	if errors.Is(err, io.EOF) {
		t.Error("StageError.Is matched a non-StageError")
	}
}

// wantImageError asserts LoadImage fails with a StageError at the image
// stage — and in particular does not panic.
func wantImageError(t *testing.T, path, label string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: LoadImage panicked: %v", label, r)
		}
	}()
	_, err := LoadImage(path)
	if !errors.Is(err, &StageError{Stage: StageImage}) {
		t.Errorf("%s: err = %v, want image-stage StageError", label, err)
	}
}

func TestLoadImageRobustness(t *testing.T) {
	dir := t.TempDir()
	img, err := asm.Assemble("main:\n\tli $v0, 10\n\tsyscall\n")
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.img")
	if err := img.WriteFile(good); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(good); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	enc, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}

	empty := filepath.Join(dir, "empty.img")
	os.WriteFile(empty, nil, 0o644)
	truncated := filepath.Join(dir, "trunc.img")
	os.WriteFile(truncated, enc[:len(enc)/2], 0o644)
	garbage := filepath.Join(dir, "garbage.img")
	os.WriteFile(garbage, bytes.Repeat([]byte{0xFF}, 256), 0o644)

	// A structurally valid encoding with an out-of-range entry point:
	// decodes fine, fails validation.
	img.Entry = img.TextEnd() + 64
	badEntry := filepath.Join(dir, "badentry.img")
	if err := img.WriteFile(badEntry); err != nil {
		t.Fatal(err)
	}

	wantImageError(t, filepath.Join(dir, "missing.img"), "missing file")
	wantImageError(t, empty, "zero-length file")
	wantImageError(t, truncated, "truncated encoding")
	wantImageError(t, garbage, "garbage bytes")
	wantImageError(t, badEntry, "out-of-range entry")
}

func TestReplayTraceRobustness(t *testing.T) {
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	for i := 0; i < 64; i++ {
		tw.Add(0x1000+uint32(i%4)*4, uint32(i)*32, false)
	}
	tw.Flush()
	enc := buf.Bytes()

	if _, err := ReplayTrace(bytes.NewReader(enc), cache.Baseline); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	// A mid-record cut: the varint head survives, its address does not.
	_, err := ReplayTrace(bytes.NewReader(enc[:len(enc)-1]), cache.Baseline)
	if !errors.Is(err, &StageError{Stage: StageTrace}) {
		t.Errorf("truncated trace: err = %v, want trace-stage StageError", err)
	}
	// Bad geometry surfaces the same way.
	_, err = ReplayTrace(bytes.NewReader(enc), cache.Config{SizeBytes: 7})
	if !errors.Is(err, &StageError{Stage: StageTrace}) {
		t.Errorf("bad geometry: err = %v, want trace-stage StageError", err)
	}
}

func TestSimulateCtxRejectsBadGeometry(t *testing.T) {
	img, err := asm.Assemble("main:\n\tli $v0, 10\n\tsyscall\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = SimulateCtx(context.Background(), img, nil, cache.Config{SizeBytes: -3})
	if !errors.Is(err, &StageError{Stage: StageSimulate}) {
		t.Errorf("err = %v, want simulate-stage StageError", err)
	}
}

func TestIdentifyImageRejectsCorruptText(t *testing.T) {
	img, err := asm.Assemble("main:\n\tli $v0, 10\n\tsyscall\n")
	if err != nil {
		t.Fatal(err)
	}
	img.Text = append(img.Text, 0xFFFFFFFF) // not a valid encoding
	_, err = IdentifyImageCtx(context.Background(), img, Options{})
	if !errors.Is(err, &StageError{Stage: StageDisasm}) {
		t.Errorf("err = %v, want disasm-stage StageError", err)
	}
	if se := new(StageError); errors.As(err, &se) {
		if se.Stage != StageDisasm {
			t.Errorf("As stage = %s", se.Stage)
		}
	} else {
		t.Errorf("errors.As failed on %T", err)
	}
	_ = fmt.Sprintf("%v", err) // message path must not panic either
}

// TestBuildStage: BuildStage attributes each BuildSourceISA failure to
// the stage that failed: a mini-C diagnostic to compile, an assembler
// diagnostic (an 80 MB global) to assemble, and an unknown machine
// description to lower.
func TestBuildStage(t *testing.T) {
	for _, c := range []struct {
		src, isa string
		want     Stage
	}{
		{"int main( {", "", StageCompile},
		{"int a[20000000]; int main() { return a[1]; }", "", StageAssemble},
		{"int main() { return 0; }", "sparc", StageLower},
	} {
		_, err := BuildSourceISA(c.src, false, c.isa)
		if err == nil {
			t.Fatalf("%q on %q built", c.src, c.isa)
		}
		if got := BuildStage(err); got != c.want {
			t.Errorf("%q on %q: stage %q, want %q (%v)", c.src, c.isa, got, c.want, err)
		}
	}
}
