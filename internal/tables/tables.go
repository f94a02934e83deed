// Package tables regenerates every table of the paper's evaluation from
// the synthetic benchmark suite: the same rows, the same measures (π, ρ,
// ξ), under the same parameter sweeps. Absolute values differ from the
// publication (the substrate is a simulator over synthetic workloads);
// the shapes these tables exist to demonstrate are reproduced.
package tables

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/core"
	"delinq/internal/metrics"
	"delinq/internal/train"
)

// Standard cache geometries, shared across experiments so one simulation
// per (benchmark, mode, input) feeds every table.
var StdGeoms = []cache.Config{
	{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32},  // baseline (Tables 1, 2, 7, 10-12, 14)
	{SizeBytes: 16 * 1024, Assoc: 4, BlockBytes: 32}, // Table 9, 13
	{SizeBytes: 32 * 1024, Assoc: 4, BlockBytes: 32}, // training geometry; Table 9
	{SizeBytes: 64 * 1024, Assoc: 4, BlockBytes: 32}, // Table 9
	{SizeBytes: 8 * 1024, Assoc: 2, BlockBytes: 32},  // Table 8
	{SizeBytes: 8 * 1024, Assoc: 8, BlockBytes: 32},  // Table 8
}

// Geometry indices into StdGeoms.
const (
	GeomBaseline = 0
	Geom16K      = 1
	GeomTraining = 2
	Geom32K      = 2
	Geom64K      = 3
	GeomAssoc2   = 4
	GeomAssoc8   = 5
)

// Table is one rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Table %s. %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	if t.Notes != "" {
		if _, err := fmt.Fprintf(w, "note: %s\n", t.Notes); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Ctx is one simulated benchmark ready for evaluation.
type Ctx struct {
	Bench *bench.Benchmark
	Build *bench.Build
	Run   *bench.Run
}

// LoadISACtx compiles and simulates one benchmark with the standard
// geometry bundle (memoised end to end), lowered to the named machine
// description; "" resolves through SetISA (mips by default). A deadline
// or cancellation stops the compile and the simulation promptly.
func LoadISACtx(ctx context.Context, b *bench.Benchmark, optimize, input2 bool, isaName string) (*Ctx, error) {
	run, err := Combo{Bench: b, Optimize: optimize, Input2: input2, Geoms: StdGeoms, ISA: isaName}.runCtx(ctx)
	if err != nil {
		return nil, err
	}
	return &Ctx{Bench: b, Build: run.Build, Run: run}, nil
}

// Stats returns the per-load statistics under geometry gi.
func (c *Ctx) Stats(gi int) []metrics.LoadStat { return c.Run.LoadStats(gi) }

// --- parallel experiment engine ----------------------------------------------------

// Combo is one unit of experimental work: a (benchmark, optimize,
// input, geometry bundle, ISA) combination to compile and simulate.
type Combo struct {
	Bench    *bench.Benchmark
	Optimize bool
	Input2   bool
	Geoms    []cache.Config
	// ISA names the machine description to lower to; empty means mips.
	ISA string
}

// runCtx compiles and simulates the combo (memoised end to end). The
// returned Run carries the combo's Build.
func (cb Combo) runCtx(ctx context.Context) (*bench.Run, error) {
	bd, err := bench.CompileISACtx(ctx, cb.Bench, cb.Optimize, isaOrDefault(cb.ISA))
	if err != nil {
		return nil, err
	}
	input := cb.Bench.Input1
	if cb.Input2 {
		input = cb.Bench.Input2
	}
	return bench.SimulateCtx(ctx, bd, input, cb.Geoms)
}

// runSafe runs the combo under the per-benchmark deadline, converting a
// worker panic into a StageWorker error instead of letting it kill the
// pool.
func (cb Combo) runSafe(parent context.Context) (run *bench.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			run, err = nil, core.WrapStage(cb.Bench.Name, core.StageWorker, fmt.Errorf("panic: %v", r))
		}
	}()
	ctx, cancel := benchCtx(parent)
	defer cancel()
	return cb.runCtx(ctx)
}

// AllCombos lists every combination a full table sweep (IDs 1-14 and
// S1-S3) simulates: all benchmarks unoptimised on Input 1; the training
// set additionally on Input 2, optimised on Input 1, and under the
// block-size sweep geometries of Table S3. Nothing outside this closure
// is simulated by any table, so preloading it warms the caches exactly.
func AllCombos() []Combo {
	var out []Combo
	for _, b := range bench.All() {
		out = append(out, Combo{Bench: b, Geoms: StdGeoms})
	}
	for _, b := range bench.Training() {
		out = append(out, Combo{Bench: b, Input2: true, Geoms: StdGeoms})
	}
	for _, b := range bench.Training() {
		out = append(out, Combo{Bench: b, Optimize: true, Geoms: StdGeoms})
	}
	for _, b := range bench.Training() {
		out = append(out, Combo{Bench: b, Geoms: BlockGeoms})
	}
	return out
}

// TrainingCombosISA lists the combinations the learning phase needs on
// the named machine description: unoptimised training benchmarks on
// Input 1 with the standard geometry bundle.
func TrainingCombosISA(isaName string) []Combo {
	var out []Combo
	for _, b := range bench.Training() {
		out = append(out, Combo{Bench: b, Geoms: StdGeoms, ISA: isaName})
	}
	return out
}

// Preload warms the compile/simulate memo caches for the given combos
// (every combo of AllCombos when nil) with a pool of workers
// goroutines; workers <= 0 means GOMAXPROCS. The singleflight memo
// layer underneath guarantees each distinct combination is compiled and
// simulated exactly once no matter how the pool schedules duplicates.
// All combos are attempted even if some fail: a failing combo (error,
// panic, or per-benchmark timeout) quarantines its benchmark in the
// degradation registry instead of aborting the warm-up, so the
// rendering pass that follows degrades just that benchmark's rows.
// Preload only returns an error when ctx itself is cancelled.
func Preload(ctx context.Context, workers int, combos []Combo) error {
	if combos == nil {
		combos = AllCombos()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(combos) {
		workers = len(combos)
	}
	if len(combos) == 0 {
		return nil
	}
	ch := make(chan Combo)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cb := range ch {
				if ctx.Err() != nil {
					continue // drain: the render is being abandoned
				}
				if _, err := cb.runSafe(ctx); err != nil && ctx.Err() == nil {
					record(cb.Bench.Name, err)
				}
			}
		}()
	}
	for _, cb := range combos {
		ch <- cb
	}
	close(ch)
	wg.Wait()
	return ctx.Err()
}

// RenderAll renders every table (IDs order) to w, first warming the
// simulation caches with a workers-wide Preload so the serial rendering
// pass only reads memoised results. The output is byte-identical to
// rendering each table serially from cold. Benchmarks that fail degrade
// to DEGRADED rows; the returned Report lists them (empty on a fully
// healthy run). The degradation registry is reset at the start, so each
// call re-evaluates every benchmark.
func RenderAll(ctx context.Context, w io.Writer, workers int) (*Report, error) {
	ResetDegradations()
	if err := Preload(ctx, workers, nil); err != nil {
		return nil, err
	}
	for _, id := range IDs() {
		t, err := ByID(id)
		if err != nil {
			return nil, err
		}
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	return &Report{Degraded: Degradations()}, nil
}

// Heuristic scores every load with the given configuration.
func (c *Ctx) Heuristic(cfg classify.Config) []*classify.Scored {
	return classify.Score(c.Build.Loads, c.Run, cfg)
}

// Delta returns the possibly-delinquent set under cfg.
func (c *Ctx) Delta(cfg classify.Config) map[uint32]bool {
	out := map[uint32]bool{}
	for _, s := range c.Heuristic(cfg) {
		if s.Delinquent {
			out[s.Load.PC] = true
		}
	}
	return out
}

// Scores returns φ(i) keyed by pc.
func (c *Ctx) Scores(cfg classify.Config) map[uint32]float64 {
	out := map[uint32]float64{}
	for _, s := range c.Heuristic(cfg) {
		out[s.Load.PC] = s.Phi
	}
	return out
}

// --- trained weights ----------------------------------------------------------

// trainOutcome is one completed learning phase for one ISA.
type trainOutcome struct {
	report *train.Report
	err    error
}

var (
	trainMu   sync.Mutex
	trainRuns = map[string]*trainOutcome{}
)

var (
	isaMu      sync.RWMutex
	defaultISA = "mips"
)

// SetISA selects the machine description the table engine targets when
// no explicit ISA is given (the `delinq table -isa` flag); empty
// restores the default mips. The memo layers underneath keep per-ISA
// builds, simulations, and trained weights separate, so switching
// mid-process is safe.
func SetISA(name string) {
	if name == "" {
		name = "mips"
	}
	isaMu.Lock()
	defaultISA = name
	isaMu.Unlock()
}

// isaOrDefault resolves an empty machine-description name to the
// configured default.
func isaOrDefault(name string) string {
	if name != "" {
		return name
	}
	isaMu.RLock()
	defer isaMu.RUnlock()
	return defaultISA
}

// TrainedReport runs (once) the full training phase over the 11 training
// benchmarks under the training cache geometry and returns the report.
// Concurrent first callers block on the single training run.
func TrainedReport() (*train.Report, error) {
	return TrainedReportISA("")
}

// TrainedReportISA is TrainedReport for the named machine description:
// the same learning phase, but over binaries lowered to that ISA, so
// each backend gets weights fitted to its own pattern population. The
// reports are memoised per ISA; "" resolves through SetISA (mips by
// default).
func TrainedReportISA(isaName string) (*train.Report, error) {
	key := isaOrDefault(isaName)
	trainMu.Lock()
	defer trainMu.Unlock()
	tr := trainRuns[key]
	if tr == nil {
		tr = &trainOutcome{}
		samples, err := TrainingSamplesISA(isaName)
		if err != nil {
			tr.err = err
		} else {
			tr.report = train.Train(samples, train.DefaultConfig())
		}
		trainRuns[key] = tr
	}
	return tr.report, tr.err
}

// ResetTraining drops the memoised training reports (every ISA) so the
// learning phase reruns (testing and benchmark hook; pair with
// bench.ResetCache for a fully cold pipeline). Safe to call
// concurrently with TrainedReport: a training run already in progress
// completes first (the reset blocks on it), then the memo is cleared.
func ResetTraining() {
	trainMu.Lock()
	trainRuns = map[string]*trainOutcome{}
	trainMu.Unlock()
}

// TrainingSamplesISA builds the per-benchmark training data (Section
// 6's learning phase: unoptimised binaries, Input1, training cache)
// over binaries lowered to the named machine description. The
// simulations are warmed by a concurrent Preload; the sample assembly
// that follows is serial and deterministic. A degraded training
// benchmark is skipped (quarantined in the registry) rather than
// failing the whole learning phase: the weights train on the healthy
// remainder.
func TrainingSamplesISA(isaName string) ([]train.Sample, error) {
	if err := Preload(context.Background(), 0, TrainingCombosISA(isaName)); err != nil {
		return nil, err
	}
	var samples []train.Sample
	for _, b := range bench.Training() {
		ctx, deg := LoadSafeISA(b, false, false, isaName)
		if deg != nil {
			continue
		}
		s := train.Sample{Name: b.Name}
		stats := ctx.Stats(GeomTraining)
		byPC := map[uint32]metrics.LoadStat{}
		for _, st := range stats {
			byPC[st.PC] = st
			s.TotalMisses += st.Misses
		}
		for _, ld := range ctx.Build.Loads {
			st := byPC[ld.PC]
			ls := train.LoadSample{
				PC:      ld.PC,
				Classes: classify.LoadClasses(ld, st.Exec),
				Exec:    st.Exec,
				Misses:  st.Misses,
			}
			seen := map[classify.AggClass]bool{}
			for _, p := range ld.Patterns {
				for _, a := range classify.PatternClasses(classify.FeaturesOf(p)) {
					if !seen[a] {
						seen[a] = true
						ls.Aggs = append(ls.Aggs, a)
					}
				}
			}
			if f := classify.FreqClass(st.Exec); f != 0 && !seen[f] {
				ls.Aggs = append(ls.Aggs, f)
			}
			s.Loads = append(s.Loads, ls)
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// HeuristicConfigISA returns the evaluation configuration: weights
// trained for the named machine description ("" resolves through
// SetISA), δ = 0.10, frequency classes per useFreq.
func HeuristicConfigISA(useFreq bool, isaName string) (classify.Config, error) {
	rep, err := TrainedReportISA(isaName)
	if err != nil {
		return classify.Config{}, err
	}
	w := rep.Weights
	cfg := classify.DefaultConfig()
	cfg.Weights = &w
	cfg.UseFrequency = useFreq
	return cfg, nil
}

// --- formatting helpers ----------------------------------------------------------

func pct(v float64) string  { return fmt.Sprintf("%.0f%%", v*100) }
func pct1(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func pct2(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
func sci(v float64) string  { return fmt.Sprintf("%.2e", v) }
func avg(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// ByID regenerates a table by its paper number ("1".."14").
func ByID(id string) (*Table, error) {
	switch id {
	case "1":
		return Table1()
	case "2":
		return Table2()
	case "3":
		return Table3()
	case "4":
		return Table4()
	case "5":
		return Table5()
	case "6":
		return Table6()
	case "7":
		return Table7()
	case "8":
		return Table8()
	case "9":
		return Table9()
	case "10":
		return Table10()
	case "11":
		return Table11()
	case "12":
		return Table12()
	case "13":
		return Table13()
	case "14":
		return Table14()
	case "S1", "s1":
		return TableS1()
	case "S2", "s2":
		return TableS2()
	case "S3", "s3":
		return TableS3()
	case "S4", "s4":
		return TableS4()
	case "S5", "s5":
		return TableS5()
	}
	return nil, fmt.Errorf("tables: unknown table %q (valid: 1-14, S1-S5)", id)
}

// IDs lists the regenerable tables.
func IDs() []string {
	return []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "S1", "S2", "S3"}
}
