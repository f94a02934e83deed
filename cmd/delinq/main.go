// Command delinq is the command-line front end of the delinquent-load
// toolkit: compile mini-C programs, inspect binaries, simulate them with
// cache models, run the static identification, retrain the heuristic
// weights, and regenerate every table of the paper.
//
// Usage:
//
//	delinq build [-O] [-o prog.img] prog.c       compile + assemble
//	delinq asm [-o prog.img] prog.s              assemble
//	delinq disasm prog.img                       objdump-style listing
//	delinq run [-isa arm] prog.img [args...]     simulate with the baseline cache
//	delinq analyze [-O] [-inter] [-isa arm] prog.c [args...]  identify delinquent loads
//	delinq profile [-O] prog.c [args...]         hotspot blocks and their loads
//	delinq trace [-o t.bin] prog.img [args...]   memory trace collection + replay
//	delinq train                                 print the training report
//	delinq table [-j N] [-v] [-isa arm] <1-14|S1-S5|all>  regenerate a paper table
//	delinq bench                                 list the benchmark suite
//	delinq difftest [-n N] [-seed S] [-v]        three-way differential test
//	delinq serve [-addr :8080] [-state-dir d]    run the analysis daemon
//	delinq loadtest [-workers N] [-duration d]   drive load at a daemon, report latency
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"delinq/internal/asm"
	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/core"
	"delinq/internal/difftest"
	"delinq/internal/disasm"
	"delinq/internal/faultinject"
	"delinq/internal/isa"
	_ "delinq/internal/isa/arm"
	_ "delinq/internal/isa/mips"
	"delinq/internal/metrics"
	"delinq/internal/tables"
	"delinq/internal/trace"
	"delinq/internal/vm"
	"delinq/internal/workerpool"
)

// usageError marks a command-line mistake (missing arguments, bad
// values): the process exits 2, distinguishing it from a pipeline
// failure (exit 1). Exit 0 covers success, including degraded-but-
// rendered table runs unless -strict is set.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return usageError{msg: fmt.Sprintf(format, args...)}
}

// installFaults arms the fault-injection plan named by the DELINQ_FAULTS
// environment variable (spec syntax: point=target[#n],..., see
// faultinject.ParsePlan), seeded by DELINQ_FAULT_SEED (default 1). The
// hook exists so the CLI's degradation behaviour is testable end to end
// without a special build.
func installFaults() error {
	spec := os.Getenv("DELINQ_FAULTS")
	if spec == "" {
		return nil
	}
	seed := int64(1)
	if s := os.Getenv("DELINQ_FAULT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return usagef("bad DELINQ_FAULT_SEED %q", s)
		}
		seed = v
	}
	plan, err := faultinject.ParsePlan(spec, seed)
	if err != nil {
		return usageError{msg: err.Error()}
	}
	// DELINQ_FAULT_LETHAL=1 switches the disk seams (wal:*) from
	// returning errors to killing the process mid-I/O — the crash-
	// recovery matrix runs real subprocesses through this hook.
	if os.Getenv("DELINQ_FAULT_LETHAL") == "1" {
		plan.SetLethal(true)
	}
	faultinject.Install(plan)
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	err := installFaults()
	if err == nil {
		switch os.Args[1] {
		case "build":
			err = cmdBuild(os.Args[2:])
		case "asm":
			err = cmdAsm(os.Args[2:])
		case "disasm":
			err = cmdDisasm(os.Args[2:])
		case "run":
			err = cmdRun(os.Args[2:])
		case "analyze":
			err = cmdAnalyze(os.Args[2:])
		case "profile":
			err = cmdProfile(os.Args[2:])
		case "trace":
			err = cmdTrace(os.Args[2:])
		case "train":
			err = cmdTrain()
		case "table":
			err = cmdTable(os.Args[2:])
		case "bench":
			err = cmdBench()
		case "difftest":
			err = cmdDifftest(os.Args[2:])
		case "serve":
			err = cmdServe(os.Args[2:])
		case "loadtest":
			err = cmdLoadtest(os.Args[2:])
		case "worker":
			err = cmdWorker(os.Args[2:])
		default:
			usage()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "delinq:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// cmdWorker is the hidden sandbox entry point `delinq serve -isolate`
// spawns: it speaks the length-prefixed frame protocol on stdin/stdout,
// executing one pipeline job per frame, until the supervisor closes the
// pipe. It is deliberately absent from the usage text — the interface
// belongs to the supervisor, not to operators.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	mem := fs.Int64("mem", 0, "memory ceiling in bytes (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("worker takes no positional arguments")
	}
	return workerpool.ServeWorker(os.Stdin, os.Stdout, *mem)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: delinq <command>
  build [-O] [-o out.img] prog.c    compile mini-C and assemble
  asm [-o out.img] prog.s           assemble MIPS-style assembly
  disasm prog.img                   disassemble an image
  run [-timeout d] [-isa name] prog.img [args...]  simulate with the 8KB baseline cache
  analyze [-O] [-inter] [-timeout d] [-isa name] prog.c [args...]  identify delinquent loads statically
  profile [-O] prog.c [args...]     basic-block profile and hotspot loads
  trace [-o t.bin] [-timeout d] prog.img [args]  collect a memory trace, then replay it
  train                             run the training phase, print weights
  table [-j N] [-v] [-timeout d] [-strict] [-isa name] <1-14|S1|all>  regenerate a table
  bench                             list the benchmark suite
  difftest [-n N] [-seed S] [-v] [-timeout d] [-isa name]  random programs: interp vs -O0 vs -O
  serve [-addr :8080] [-max-inflight N] [-queue N] [-req-timeout d] [-drain-timeout d] [-cache-entries N] [-cache-bytes B] [-state-dir dir] [-isolate [-workers N] [-worker-mem B]]  run the analysis daemon
  loadtest [-addr URL] [-workers N] [-duration d] [-rps R] [-keys N] [-skew S] [-endpoint analyze|run] [-isolate] [-o f.json]  drive load, report latency percentiles`)
	os.Exit(2)
}

// checkISA validates a -isa flag value: an unknown machine description
// is a usage error (exit 2), listing the registered names.
func checkISA(name string) error {
	if _, err := isa.ByName(name); err != nil {
		return usageError{msg: err.Error()}
	}
	return nil
}

// deadlineCtx builds the context a -timeout flag asks for; zero means
// no deadline. The returned cancel is always non-nil.
func deadlineCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

func parseArgs(raw []string) ([]int32, error) {
	var out []int32
	for _, a := range raw {
		v, err := strconv.ParseInt(a, 0, 32)
		if err != nil {
			return nil, fmt.Errorf("bad program argument %q", a)
		}
		out = append(out, int32(v))
	}
	return out, nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	opt := fs.Bool("O", false, "optimise: promote scalar locals to registers")
	out := fs.String("o", "prog.img", "output image path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("build wants one source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	img, err := core.BuildSourceISA(string(src), *opt, "")
	if err != nil {
		return err
	}
	if err := img.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d instructions, %d bytes data, entry %#x\n",
		*out, len(img.Text), len(img.Data), img.Entry)
	return nil
}

func cmdAsm(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ExitOnError)
	out := fs.String("o", "prog.img", "output image path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("asm wants one source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	img, err := asm.Assemble(string(src))
	if err != nil {
		return err
	}
	if err := img.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d instructions\n", *out, len(img.Text))
	return nil
}

func cmdDisasm(args []string) error {
	if len(args) != 1 {
		return usagef("disasm wants one image file")
	}
	img, err := core.LoadImage(args[0])
	if err != nil {
		return err
	}
	prog, err := disasm.Disassemble(img)
	if err != nil {
		return core.WrapStage("", core.StageDisasm, err)
	}
	return prog.Print(os.Stdout)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	timeout := fs.Duration("timeout", 0, "simulation deadline (0 = none)")
	isaName := fs.String("isa", "", "lower the image to this machine description before simulating (mips, arm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkISA(*isaName); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return usagef("run wants an image file")
	}
	img, err := core.LoadImage(fs.Arg(0))
	if err != nil {
		return err
	}
	if img, err = core.LowerImage(img, *isaName); err != nil {
		return err
	}
	progArgs, err := parseArgs(fs.Args()[1:])
	if err != nil {
		return err
	}
	ctx, cancel := deadlineCtx(*timeout)
	defer cancel()
	sim, err := core.SimulateCtx(ctx, img, progArgs)
	if err != nil {
		return err
	}
	fmt.Print(sim.Result.Output)
	st := sim.Caches[0].Stats()
	fmt.Printf("exit=%d insts=%d accesses=%d misses=%d (%.2f%%)\n",
		sim.Result.Exit, sim.Result.Insts, st.Accesses, st.Misses, 100*st.MissRate())
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	opt := fs.Bool("O", false, "optimise before analysing")
	inter := fs.Bool("inter", false, "resolve address patterns across calls (function summaries)")
	timeout := fs.Duration("timeout", 0, "deadline for simulation and analysis (0 = none)")
	isaName := fs.String("isa", "", "machine description to build for (mips, arm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkISA(*isaName); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return usagef("analyze wants a source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	progArgs, err := parseArgs(fs.Args()[1:])
	if err != nil {
		return err
	}
	ctx, cancel := deadlineCtx(*timeout)
	defer cancel()
	img, err := core.BuildSourceISA(string(src), *opt, *isaName)
	if err != nil {
		return err
	}
	sim, err := core.SimulateCtx(ctx, img, progArgs)
	if err != nil {
		return err
	}
	res, err := core.IdentifyImageCtx(ctx, img, core.Options{Profile: sim, Interprocedural: *inter})
	if err != nil {
		return err
	}
	ev := res.Evaluate(sim, 0)
	fmt.Printf("loads: %d total, %d possibly delinquent (pi=%.1f%%), coverage rho=%.1f%%\n",
		ev.Loads, ev.Selected, 100*ev.Pi, 100*ev.Rho)
	for _, d := range res.Delinquent() {
		fmt.Println(" ", core.Describe(d))
	}
	okn, bdh := res.Baselines(sim, 0)
	fmt.Printf("baselines: OKN pi=%.1f%% rho=%.1f%%; BDH pi=%.1f%% rho=%.1f%%\n",
		100*okn.Pi, 100*okn.Rho, 100*bdh.Pi, 100*bdh.Rho)
	return nil
}

// cmdTrace implements Section 3's off-line memory-profiling path:
// execute natively (well, simulated) while emitting a memory trace, then
// run the trace through cache simulators to recover per-load misses.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "", "write the trace to this file (default: in-memory only)")
	timeout := fs.Duration("timeout", 0, "collection + replay deadline (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return usagef("trace wants an image file")
	}
	img, err := core.LoadImage(fs.Arg(0))
	if err != nil {
		return err
	}
	progArgs, err := parseArgs(fs.Args()[1:])
	if err != nil {
		return err
	}
	var sink io.Writer = &bytes.Buffer{}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
	}
	buf, _ := sink.(*bytes.Buffer)
	ctx, cancel := deadlineCtx(*timeout)
	defer cancel()
	tw := trace.NewWriter(sink)
	res, err := vm.RunContext(ctx, img, vm.Options{
		Args: progArgs,
		OnAccess: func(pc, addr uint32, store bool) {
			tw.Add(pc, addr, store)
		},
	})
	if err != nil {
		if ctx.Err() != nil {
			// Deadline expiry gets trace-stage provenance; other VM
			// failures keep their original message.
			return core.WrapStage("", core.StageTrace, err)
		}
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("executed %d instructions, traced %d accesses\n", res.Insts, tw.Records())
	if buf == nil {
		fmt.Printf("trace written to %s; replay skipped\n", *out)
		return nil
	}
	geoms := []cache.Config{
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 32 * 1024, Assoc: 4, BlockBytes: 32},
	}
	stats, err := core.ReplayTrace(bytes.NewReader(buf.Bytes()), geoms...)
	if err != nil {
		return err
	}
	for i, g := range geoms {
		fmt.Printf("%-16s misses=%d (%.2f%% of accesses)\n",
			g.String(), stats[i].Cache.Misses, 100*stats[i].Cache.MissRate())
	}
	return nil
}

// cmdProfile implements the paper's Section 4 view: the basic blocks
// covering 90% of compute cycles and the loads inside them, compared to
// the ideal greedy set for the same coverage.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	opt := fs.Bool("O", false, "optimise before profiling")
	frac := fs.Float64("frac", 0.90, "cycle fraction defining hotspots")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return usagef("profile wants a source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	progArgs, err := parseArgs(fs.Args()[1:])
	if err != nil {
		return err
	}
	img, err := core.BuildSourceISA(string(src), *opt, "")
	if err != nil {
		return err
	}
	ctx := context.Background()
	sim, err := core.SimulateCtx(ctx, img, progArgs)
	if err != nil {
		return err
	}
	res, err := core.IdentifyImageCtx(ctx, img, core.Options{Profile: sim})
	if err != nil {
		return err
	}
	stats := sim.LoadStats(res.Loads, 0)
	hot := metrics.HotspotLoads(res.Prog, sim.Result.ExecAt, *frac)
	ev := metrics.Evaluate(hot, stats)
	ideal := metrics.IdealSet(stats, ev.Rho)
	fmt.Printf("hotspot loads (blocks covering %.0f%% of cycles): %d of %d (pi=%.1f%%), rho=%.1f%%\n",
		100**frac, ev.Selected, ev.Loads, 100*ev.Pi, 100*ev.Rho)
	fmt.Printf("ideal set for the same coverage: %d loads (pi=%.2f%%)\n",
		len(ideal), 100*float64(len(ideal))/float64(len(stats)))
	fmt.Println("\nhot loads by misses:")
	sort.Slice(stats, func(i, j int) bool { return stats[i].Misses > stats[j].Misses })
	shown := 0
	for _, s := range stats {
		if !hot[s.PC] || shown >= 15 || s.Misses == 0 {
			continue
		}
		fn := res.Prog.FuncAt(s.PC)
		name := "?"
		off := s.PC
		if fn != nil {
			name = fn.Name
			off = s.PC - fn.Entry
		}
		fmt.Printf("  %s+%#x  E=%-10d M=%d\n", name, off, s.Exec, s.Misses)
		shown++
	}
	return nil
}

func cmdTrain() error {
	rep, err := tables.Engine{}.TrainedReport(context.Background())
	if err != nil {
		return err
	}
	fmt.Println(rep)
	fmt.Println()
	for _, ar := range rep.Aggs {
		fmt.Printf("%-4v %-24s %-9v weight %+.2f (relevant in %d of 11)\n",
			ar.Agg, ar.Agg.Feature(), ar.Nature, ar.Weight, ar.RelevantIn)
	}
	paper := classify.PaperWeights()
	fmt.Println("\npaper weights for comparison:")
	for agg := classify.AG1; agg <= classify.AG9; agg++ {
		fmt.Printf("%-4v %+0.2f\n", agg, paper[agg])
	}
	return nil
}

func cmdTable(args []string) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	workers := fs.Int("j", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "print memo-cache statistics to stderr")
	timeout := fs.Duration("timeout", 0, "per-benchmark deadline (0 = none)")
	strict := fs.Bool("strict", false, "exit nonzero if any benchmark degrades")
	isaName := fs.String("isa", "", "machine description to evaluate on (mips, arm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkISA(*isaName); err != nil {
		return err
	}
	if *workers < 0 {
		return usagef("table -j wants a non-negative worker count, got %d", *workers)
	}
	if fs.NArg() != 1 {
		return usagef("table wants a table number or 'all'")
	}
	// "all" preloads every simulation through the parallel experiment
	// engine before rendering.
	eng := tables.Engine{ISA: *isaName, Timeout: *timeout}
	degs, err := eng.Render(context.Background(), os.Stdout, *workers, fs.Arg(0))
	if err == nil {
		err = reportDegradations(degs, *strict)
	}
	if *verbose {
		bs, rs := bench.CacheStats()
		fmt.Fprintf(os.Stderr,
			"memo: builds hits=%d misses=%d joined=%d errors=%d; runs hits=%d misses=%d joined=%d errors=%d\n",
			bs.Hits, bs.Misses, bs.Joined, bs.Errors,
			rs.Hits, rs.Misses, rs.Joined, rs.Errors)
	}
	return err
}

// reportDegradations summarises quarantined benchmarks on stderr. The
// run still succeeds (the healthy rows rendered); only -strict turns
// degradation into a failure.
func reportDegradations(degs []*tables.Degradation, strict bool) error {
	if len(degs) == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "delinq: %d benchmark(s) degraded:\n", len(degs))
	for _, d := range degs {
		fmt.Fprintf(os.Stderr, "  %s\n", d)
	}
	if strict {
		return fmt.Errorf("%d benchmark(s) degraded (strict mode)", len(degs))
	}
	return nil
}

// cmdDifftest runs the three-way differential oracle: every generated
// program must behave identically on the AST interpreter, the -O0
// pipeline, and the -O pipeline.
func cmdDifftest(args []string) error {
	fs := flag.NewFlagSet("difftest", flag.ExitOnError)
	n := fs.Int("n", 200, "number of random programs to check")
	seed := fs.Int64("seed", 1, "base seed; program k uses seed+k")
	verbose := fs.Bool("v", false, "print progress and full failing sources")
	timeout := fs.Duration("timeout", 0, "deadline for the whole batch (0 = none)")
	isaName := fs.String("isa", "", "machine description the compiled pipelines target (mips, arm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkISA(*isaName); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("difftest takes no positional arguments")
	}
	if *n <= 0 {
		return usagef("difftest -n wants a positive count")
	}
	opts := difftest.Options{N: *n, Seed: *seed, ISA: *isaName}
	if *verbose {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "difftest: %d/%d\n", done, total)
		}
	}
	ctx, cancel := deadlineCtx(*timeout)
	defer cancel()
	sum, runErr := difftest.RunCtx(ctx, opts)
	for _, f := range sum.Failures {
		fmt.Printf("seed %d: %s\n", f.Seed, f.Reason)
		if *verbose {
			fmt.Printf("--- source ---\n%s\n", f.Src)
		}
	}
	fmt.Printf("difftest: %d programs, %d disagreements\n", sum.Programs, len(sum.Failures))
	if runErr != nil {
		return runErr
	}
	if len(sum.Failures) > 0 {
		return fmt.Errorf("%d of %d programs disagree", len(sum.Failures), sum.Programs)
	}
	return nil
}

func cmdBench() error {
	fmt.Printf("%-14s %-8s %-18s %s\n", "benchmark", "set", "input1", "input2")
	for _, b := range bench.All() {
		set := "test"
		if b.Training {
			set = "train"
		}
		fmt.Printf("%-14s %-8s %-18s %s\n", b.Name, set, b.Input1Name, b.Input2Name)
	}
	return nil
}
