// Package tables regenerates every table of the paper's evaluation from
// the synthetic benchmark suite: the same rows, the same measures (π, ρ,
// ξ), under the same parameter sweeps. Absolute values differ from the
// publication (the substrate is a simulator over synthetic workloads);
// the shapes these tables exist to demonstrate are reproduced.
//
// An Engine renders them. It is a plain value carrying the machine
// description and the per-benchmark deadline; every call builds its own
// render, with its own context and quarantine, so concurrent renders
// share only the memoised builds, simulations and trained weights
// underneath.
package tables

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/metrics"
	"delinq/internal/rescache"
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

// Stats returns the per-load statistics under geometry gi.
func (c *Ctx) Stats(gi int) []metrics.LoadStat { return c.Run.LoadStats(c.Build.Loads, gi) }

// Heuristic scores every load with the given configuration.
func (c *Ctx) Heuristic(cfg classify.Config) []*classify.Scored {
	return classify.Score(c.Build.Loads, c.Run, cfg)
}

// Delta returns the possibly-delinquent set under cfg.
func (c *Ctx) Delta(cfg classify.Config) map[uint32]bool {
	return classify.DeltaSet(c.Heuristic(cfg))
}

// Scores returns φ(i) keyed by pc.
func (c *Ctx) Scores(cfg classify.Config) map[uint32]float64 {
	out := map[uint32]float64{}
	for _, s := range c.Heuristic(cfg) {
		out[s.Load.PC] = s.Phi
	}
	return out
}

// --- the engine ----------------------------------------------------------

// Engine renders tables for one machine description under one
// per-benchmark deadline. The zero Engine targets mips with no deadline.
type Engine struct {
	// ISA names the machine description to lower every benchmark to
	// ("mips", "arm"); empty means mips. Table S5 compares both ISAs
	// whatever the engine's.
	ISA string
	// Timeout bounds each benchmark's compile, simulation and
	// interprocedural analysis, on top of the render's context; zero
	// means no per-benchmark deadline.
	Timeout time.Duration
}

// Render writes table id to w and returns the benchmarks the render
// quarantined, sorted by name (none on a healthy render). The id "all"
// renders every table of IDs in order, first warming every combination
// of AllCombos with a pool of workers goroutines (workers <= 0 means
// GOMAXPROCS), so the serial rendering pass only reads memoised
// results; the output is byte-identical to rendering each table from
// cold. A benchmark that fails degrades to DEGRADED rows. The render
// itself fails when ctx ends: it starts no benchmark after that.
func (e Engine) Render(ctx context.Context, w io.Writer, workers int, id string) ([]*Degradation, error) {
	r := e.start(ctx)
	ids := []string{id}
	if id == "all" {
		if err := r.preload(workers, nil); err != nil {
			return nil, err
		}
		ids = IDs()
	}
	for _, id := range ids {
		t, err := r.table(id)
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			err = t.Render(w)
		}
		if err != nil {
			return nil, err
		}
	}
	return r.q.list(), nil
}

// Load compiles and simulates one benchmark on the engine's ISA with the
// standard geometry bundle (memoised end to end) under ctx and the
// per-benchmark deadline.
func (e Engine) Load(ctx context.Context, b *bench.Benchmark, optimize, input2 bool) (*Ctx, error) {
	c, d := e.start(ctx).load(b, optimize, input2)
	if d != nil {
		return nil, d.Err
	}
	return c, nil
}

// TrainedReport returns the learning phase's report on the engine's ISA
// (run once per ISA and shared; see trained). Outside a render there is
// no DEGRADED row to flag weights trained on a remainder, so a phase
// that had to skip a training benchmark is an error here.
func (e Engine) TrainedReport(ctx context.Context) (*train.Report, error) {
	r := e.start(ctx)
	rep, err := r.trainedReport()
	if err != nil {
		return nil, err
	}
	if degs := r.q.list(); len(degs) > 0 {
		return nil, fmt.Errorf("tables: training skipped %d benchmark(s): %v", len(degs), degs[0])
	}
	return rep, nil
}

// HeuristicConfig returns the evaluation configuration: the engine's
// trained weights (see TrainedReport), δ = 0.10, frequency classes per
// useFreq.
func (e Engine) HeuristicConfig(ctx context.Context, useFreq bool) (classify.Config, error) {
	rep, err := e.TrainedReport(ctx)
	if err != nil {
		return classify.Config{}, err
	}
	return heuristicConfig(rep, useFreq), nil
}

// render is the state of one engine call: its context, machine
// description, per-benchmark deadline and quarantine. Copies share the
// quarantine, so Table S5 evaluates both ISAs in one render.
type render struct {
	ctx     context.Context
	isa     string
	timeout time.Duration
	q       *quarantine
}

// start begins one render of the engine under ctx.
func (e Engine) start(ctx context.Context) render {
	isaName := e.ISA
	if isaName == "" {
		isaName = "mips"
	}
	return render{ctx: ctx, isa: isaName, timeout: e.Timeout, q: &quarantine{m: map[string]*Degradation{}}}
}

// on returns the render retargeted to another machine description.
func (r render) on(isaName string) render {
	r.isa = isaName
	return r
}

// tableFuncs maps every table's canonical id to its generator.
var tableFuncs = map[string]func(render) (*Table, error){
	"1": render.table1, "2": render.table2, "3": render.table3, "4": render.table4,
	"5": render.table5, "6": render.table6, "7": render.table7, "8": render.table8,
	"9": render.table9, "10": render.table10, "11": render.table11, "12": render.table12,
	"13": render.table13, "14": render.table14,
	"S1": render.tableS1, "S2": render.tableS2, "S3": render.tableS3,
	"S4": render.tableS4, "S5": render.tableS5,
}

// CanonicalID resolves a table id — "1".."14" or "S1".."S5", the S in
// either case — to its canonical spelling, or reports it unknown.
func CanonicalID(id string) (string, error) {
	canon := id
	if strings.HasPrefix(id, "s") {
		canon = "S" + id[1:]
	}
	if _, ok := tableFuncs[canon]; !ok {
		return "", fmt.Errorf("tables: unknown table %q (valid: 1-14, S1-S5)", id)
	}
	return canon, nil
}

// table regenerates one table by id.
func (r render) table(id string) (*Table, error) {
	canon, err := CanonicalID(id)
	if err != nil {
		return nil, err
	}
	return tableFuncs[canon](r)
}

// IDs lists the tables of the default sweep, `delinq table all`.
func IDs() []string {
	return []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "S1", "S2", "S3"}
}

// --- parallel experiment engine ----------------------------------------------------

// Combo is one unit of experimental work: a (benchmark, optimize,
// input, geometry bundle) combination to compile and simulate on a
// render's machine description.
type Combo struct {
	Bench    *bench.Benchmark
	Optimize bool
	Input2   bool
	Geoms    []cache.Config
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

// preload warms the compile/simulate memo caches for combos (every
// combo of AllCombos when nil) with a pool of workers goroutines;
// workers <= 0 means GOMAXPROCS. The singleflight memo layer underneath
// guarantees each distinct combination is compiled and simulated
// exactly once no matter how the pool schedules duplicates. All combos
// are attempted even if some fail: a failing combo (error, panic, or
// per-benchmark timeout) quarantines its benchmark instead of aborting
// the warm-up, so the rendering pass that follows degrades just that
// benchmark's rows. preload only returns an error when the render's
// context has ended.
func (r render) preload(workers int, combos []Combo) error {
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
				if _, err := r.simulate(cb); err != nil && r.ctx.Err() == nil {
					r.q.record(cb.Bench.Name, err)
				}
			}
		}()
	}
	for _, cb := range combos {
		ch <- cb
	}
	close(ch)
	wg.Wait()
	return r.ctx.Err()
}

// --- trained weights ----------------------------------------------------------

// trainedWeights is one learning phase's outcome on one ISA: the report
// and the training benchmarks the phase had to skip.
type trainedWeights struct {
	rep     *train.Report
	skipped []*Degradation
}

// trained memoises the learning phase per ISA across every render.
// Concurrent renders share one phase. The zero rescache.Config keeps a
// report until ResetTraining, but only one trained on every training
// benchmark: weights from a healthy remainder serve the renders that
// ran or joined that phase, each of which quarantines the skipped
// benchmarks, and are then dropped.
var trained = rescache.New[trainedWeights](rescache.Config{}, nil)

// trainedReport runs (once per ISA) the full training phase over the 11
// training benchmarks under the training cache geometry, on binaries
// lowered to the render's ISA, so each backend gets weights fitted to
// its own pattern population.
func (r render) trainedReport() (*train.Report, error) {
	tw, _, err := trained.Do(r.ctx, r.isa, func() (trainedWeights, bool, error) {
		samples, skipped, err := r.trainingSamples()
		if err != nil {
			return trainedWeights{}, false, err
		}
		return trainedWeights{train.Train(samples), skipped}, len(skipped) == 0, nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range tw.skipped {
		r.q.add(d)
	}
	return tw.rep, nil
}

// ResetTraining drops the memoised training reports (every ISA) so the
// learning phase reruns (testing and benchmark hook; pair with
// bench.ResetCache for a fully cold pipeline). A training run in
// progress is detached, as under bench.ResetCache: its callers still
// receive its report, but it is not retained.
func ResetTraining() { trained.Reset() }

// trainingSamples builds the per-benchmark training data (Section 6's
// learning phase: unoptimised binaries, Input1, training cache). The
// simulations are warmed by a concurrent preload; the sample assembly
// that follows is serial and deterministic. A degraded training
// benchmark is skipped and returned rather than failing the whole
// learning phase: the weights train on the healthy remainder.
func (r render) trainingSamples() ([]train.Sample, []*Degradation, error) {
	var combos []Combo
	for _, b := range bench.Training() {
		combos = append(combos, Combo{Bench: b, Geoms: StdGeoms})
	}
	if err := r.preload(0, combos); err != nil {
		return nil, nil, err
	}
	var samples []train.Sample
	var skipped []*Degradation
	for _, b := range bench.Training() {
		ctx, deg := r.load(b, false, false)
		if deg != nil {
			skipped = append(skipped, deg)
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
	return samples, skipped, nil
}

// heuristic returns the evaluation configuration on the render's
// trained weights; see heuristicConfig.
func (r render) heuristic(useFreq bool) (classify.Config, error) {
	rep, err := r.trainedReport()
	if err != nil {
		return classify.Config{}, err
	}
	return heuristicConfig(rep, useFreq), nil
}

// heuristicConfig is the evaluation configuration: rep's weights,
// δ = 0.10, frequency classes per useFreq.
func heuristicConfig(rep *train.Report, useFreq bool) classify.Config {
	w := rep.Weights
	cfg := classify.DefaultConfig()
	cfg.Weights = &w
	cfg.UseFrequency = useFreq
	return cfg
}

// --- the default render ----------------------------------------------------------

// defaultRender backs the package-level shortcuts below: mips, no
// deadline, context.Background(), and one process-wide quarantine that
// nothing resets. Engine never uses it.
var defaultRender = Engine{}.start(context.Background())

// ByID regenerates a table by id ("1".."14", "S1".."S5") on the default
// render.
func ByID(id string) (*Table, error) { return defaultRender.table(id) }

// Preload warms the compile/simulate memo caches for combos (every
// combo of AllCombos when nil) on the default render, under ctx; see
// Engine.Render for the quarantine. It only returns an error when ctx
// ends.
func Preload(ctx context.Context, workers int, combos []Combo) error {
	r := defaultRender
	r.ctx = ctx
	return r.preload(workers, combos)
}

// TrainedReport returns the default render's trained mips weights.
func TrainedReport() (*train.Report, error) { return defaultRender.trainedReport() }

// Degradations lists the benchmarks the default render has quarantined,
// sorted by name.
func Degradations() []*Degradation { return defaultRender.q.list() }

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
