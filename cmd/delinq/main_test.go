package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildCLI compiles the delinq binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "delinq")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

const cliProg = `
int tbl[2048];
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 2048; i++) tbl[i] = i;
	for (i = 0; i < 2048; i++) s += tbl[i];
	print_int(s);
	return s & 255;
}
`

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.c")
	img := filepath.Join(dir, "prog.img")
	if err := os.WriteFile(src, []byte(cliProg), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(wantSub string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		if wantSub != "" && !strings.Contains(string(out), wantSub) {
			t.Errorf("%v output missing %q:\n%s", args, wantSub, out)
		}
		return string(out)
	}

	run("wrote", "build", "-o", img, src)
	run("exit=", "run", img)
	run("<main>:", "disasm", img)
	out := run("possibly delinquent", "analyze", src)
	if !strings.Contains(out, "baselines:") {
		t.Errorf("analyze missing baselines:\n%s", out)
	}
	run("possibly delinquent", "analyze", "-inter", src)
	run("possibly delinquent", "analyze", "-O", "-inter", src)
	run("hotspot loads", "profile", src)
	run("Table 6.", "table", "6")
	// The parallel engine: explicit worker count, and -v memo counters
	// (which go to stderr, captured by CombinedOutput).
	run("Table 6.", "table", "-j", "2", "6")
	out = run("Table 1.", "table", "-j", "2", "-v", "1")
	// Exactly once: Table 1 builds and simulates each of the 18
	// benchmarks once, unoptimised on Input 1. The pattern is the one
	// delinqbench/sweep.go parses.
	memoLine := regexp.MustCompile(`memo: builds hits=\d+ misses=(\d+) joined=\d+ errors=(\d+); runs hits=\d+ misses=(\d+) joined=\d+ errors=(\d+)`)
	if m := memoLine.FindStringSubmatch(out); m == nil {
		t.Errorf("table -v missing memo stats:\n%s", out)
	} else if m[1] != "18" || m[2] != "0" || m[3] != "18" || m[4] != "0" {
		t.Errorf("table -v 1: builds misses=%s errors=%s, runs misses=%s errors=%s; want 18/0 and 18/0",
			m[1], m[2], m[3], m[4])
	}

	// Error paths exit non-zero.
	if err := exec.Command(bin, "table", "99").Run(); err == nil {
		t.Error("table 99 succeeded")
	}
	if err := exec.Command(bin, "table", "-j", "zero", "1").Run(); err == nil {
		t.Error("table -j with non-numeric arg succeeded")
	}
	jOut, err := exec.Command(bin, "table", "-j", "-1", "1").CombinedOutput()
	if err == nil {
		t.Error("table -j -1 succeeded, want usage error")
	} else if !strings.Contains(string(jOut), "non-negative") {
		t.Errorf("table -j -1 error not a usage message:\n%s", jOut)
	}
	if err := exec.Command(bin, "frobnicate").Run(); err == nil {
		t.Error("unknown command succeeded")
	}
	if err := exec.Command(bin).Run(); err == nil {
		t.Error("no-args invocation succeeded")
	}
}

// TestCLIISAFlag covers the -isa machine-description flag: an unknown
// name is a usage mistake (exit 2) on every command that takes the
// flag, and the arm backend runs the same pipeline end to end.
func TestCLIISAFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.c")
	img := filepath.Join(dir, "prog.img")
	if err := os.WriteFile(src, []byte(cliProg), 0o644); err != nil {
		t.Fatal(err)
	}

	// Unknown ISA: exit 2 with a message naming the valid set.
	for _, c := range [][]string{
		{"analyze", "-isa", "sparc", src},
		{"run", "-isa", "sparc", img},
		{"table", "-isa", "sparc", "6"},
		{"difftest", "-isa", "sparc", "-n", "1"},
	} {
		out, err := exec.Command(bin, c...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit 2\n%s", c, err, out)
		}
		if !strings.Contains(string(out), "unknown machine") {
			t.Errorf("%v error does not name the bad ISA:\n%s", c, out)
		}
	}

	// The arm backend end to end: build a mips image, lower+run it, and
	// analyze source directly on arm. Outputs must match the mips run.
	run := func(wantSub string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		if wantSub != "" && !strings.Contains(string(out), wantSub) {
			t.Errorf("%v output missing %q:\n%s", args, wantSub, out)
		}
		return string(out)
	}
	run("wrote", "build", "-o", img, src)
	mipsOut := run("exit=", "run", img)
	armOut := run("exit=", "run", "-isa", "arm", img)
	if mipsOut[:strings.Index(mipsOut, "exit=")] != armOut[:strings.Index(armOut, "exit=")] {
		t.Errorf("program output differs across ISAs:\nmips: %s\narm: %s", mipsOut, armOut)
	}
	run("possibly delinquent", "analyze", "-isa", "arm", src)
	run("difftest: 5 programs, 0 disagreements", "difftest", "-isa", "arm", "-n", "5")
}

// TestCLIExitCodeContract pins the three-level exit contract: 0 for
// success (including degraded-but-rendered tables), 1 for pipeline
// failures, 2 for command-line mistakes.
func TestCLIExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)

	exitCode := func(env []string, args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), env...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%v: %v", args, err)
		}
		return ee.ExitCode(), string(out)
	}

	// Usage mistakes: exit 2.
	for _, c := range [][]string{
		{"table"},                  // missing table id
		{"table", "-j", "-1", "1"}, // bad worker count
		{"run"},                    // missing image
		{"frobnicate"},             // unknown command
		{},                         // no command at all
	} {
		if code, out := exitCode(nil, c...); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", c, code, out)
		}
	}
	// A bad fault spec is also a usage mistake.
	if code, out := exitCode([]string{"DELINQ_FAULTS=bogus=x"}, "table", "6"); code != 2 {
		t.Errorf("bad DELINQ_FAULTS: exit %d, want 2\n%s", code, out)
	}
	if code, out := exitCode(
		[]string{"DELINQ_FAULTS=sim=126.gcc", "DELINQ_FAULT_SEED=zap"}, "table", "6"); code != 2 {
		t.Errorf("bad DELINQ_FAULT_SEED: exit %d, want 2\n%s", code, out)
	}

	// Pipeline failures: exit 1.
	if code, out := exitCode(nil, "run", filepath.Join(t.TempDir(), "missing.img")); code != 1 {
		t.Errorf("run on a missing image: exit %d, want 1\n%s", code, out)
	}
	if code, out := exitCode(nil, "table", "99"); code != 1 {
		t.Errorf("unknown table id: exit %d, want 1\n%s", code, out)
	}

	// Degraded-but-rendered: exit 0, DEGRADED row on stdout, summary on
	// stderr; -strict turns the same run into exit 1.
	code, out := exitCode([]string{"DELINQ_FAULTS=sim=126.gcc"}, "table", "10")
	if code != 0 {
		t.Fatalf("degraded table: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "DEGRADED(simulate)") {
		t.Errorf("degraded table missing DEGRADED row:\n%s", out)
	}
	if !strings.Contains(out, "benchmark(s) degraded") {
		t.Errorf("degraded table missing stderr summary:\n%s", out)
	}
	code, out = exitCode([]string{"DELINQ_FAULTS=sim=126.gcc"}, "table", "-strict", "10")
	if code != 1 {
		t.Errorf("degraded table -strict: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "strict mode") {
		t.Errorf("-strict failure message missing:\n%s", out)
	}
	// -strict on a healthy run stays 0.
	if code, out := exitCode(nil, "table", "-strict", "6"); code != 0 {
		t.Errorf("healthy table -strict: exit %d, want 0\n%s", code, out)
	}
}

// TestCLITimeoutFlag exercises -timeout on both commands that accept
// it: an absurdly small deadline degrades the table run (still exit 0)
// and fails analyze (exit 1); a generous one changes nothing.
func TestCLITimeoutFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(src, []byte(cliProg), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "table", "-timeout", "1ns", "10").CombinedOutput()
	if err != nil {
		t.Fatalf("table -timeout 1ns: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "DEGRADED(") {
		t.Errorf("1ns deadline degraded nothing:\n%s", out)
	}

	if out, err := exec.Command(bin, "analyze", "-timeout", "1ns", src).CombinedOutput(); err == nil {
		t.Errorf("analyze -timeout 1ns succeeded:\n%s", out)
	}
	if out, err := exec.Command(bin, "analyze", "-timeout", "5m", src).CombinedOutput(); err != nil {
		t.Errorf("analyze -timeout 5m: %v\n%s", err, out)
	}
}

func TestCLIBenchList(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	out, err := exec.Command(bin, "bench").CombinedOutput()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"181.mcf", "008.espresso", "train", "test"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("bench list missing %q", want)
		}
	}
}

func TestCLITrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.c")
	img := filepath.Join(dir, "prog.img")
	tr := filepath.Join(dir, "prog.trace")
	if err := os.WriteFile(src, []byte(cliProg), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "build", "-o", img, src).CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "trace", img).CombinedOutput()
	if err != nil {
		t.Fatalf("trace: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "misses=") {
		t.Errorf("trace output missing replay stats:\n%s", out)
	}
	out, err = exec.Command(bin, "trace", "-o", tr, img).CombinedOutput()
	if err != nil {
		t.Fatalf("trace -o: %v\n%s", err, out)
	}
	if fi, err := os.Stat(tr); err != nil || fi.Size() == 0 {
		t.Errorf("trace file missing or empty: %v", err)
	}
	_ = out
}

func TestCLIDifftest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)

	out, err := exec.Command(bin, "difftest", "-n", "25", "-seed", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("difftest: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "difftest: 25 programs, 0 disagreements") {
		t.Errorf("unexpected difftest summary:\n%s", out)
	}

	// Same seed, verbose: progress goes to stderr, summary stays put.
	out, err = exec.Command(bin, "difftest", "-n", "5", "-seed", "3", "-v").CombinedOutput()
	if err != nil {
		t.Fatalf("difftest -v: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "5 programs") {
		t.Errorf("difftest -v lost the summary:\n%s", out)
	}

	// Error paths exit non-zero.
	for _, args := range [][]string{
		{"difftest", "-n", "0"},
		{"difftest", "-n", "-3"},
		{"difftest", "stray-positional"},
		{"difftest", "-bogus-flag"},
	} {
		if err := exec.Command(bin, args...).Run(); err == nil {
			t.Errorf("%v succeeded, want non-zero exit", args)
		}
	}
}
