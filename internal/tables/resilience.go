// Graceful degradation for the table engine: a benchmark whose pipeline
// fails (or times out, or panics) is quarantined in its render's
// quarantine instead of aborting the whole render. Every per-benchmark
// table renders through one loop, rows, which renders the quarantined
// benchmark as a DEGRADED(<stage>) row and excludes it from averages;
// the rest of the suite is unaffected. A quarantined training benchmark
// is left out of the learning phase; the weights trained on the healthy
// remainder serve the renders that ran or joined that phase only (see
// trained). On a fault-free run nothing here fires and the rendered
// output is byte-identical to the pre-resilience engine.
package tables

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"delinq/internal/bench"
	"delinq/internal/core"
	"delinq/internal/pattern"
)

// Degradation records one quarantined benchmark: the stage that failed
// and the underlying error.
type Degradation struct {
	Benchmark string
	Stage     core.Stage
	Err       error
}

func (d *Degradation) String() string {
	return fmt.Sprintf("%s: degraded at %s stage: %v", d.Benchmark, d.Stage, d.Err)
}

// quarantine is one render's degradation registry. It is keyed by
// benchmark name, not ISA or geometry, which keeps every table's view of
// a sick benchmark consistent; the first failure recorded wins.
type quarantine struct {
	mu sync.Mutex
	m  map[string]*Degradation
}

// record quarantines a benchmark, deriving the stage from the error's
// StageError (StageWorker when the error carries no stage).
func (q *quarantine) record(name string, err error) *Degradation {
	stage := core.StageWorker
	var se *core.StageError
	if errors.As(err, &se) {
		stage = se.Stage
	}
	return q.add(&Degradation{Benchmark: name, Stage: stage, Err: err})
}

// add quarantines d's benchmark unless an earlier entry holds it, and
// returns the entry that holds.
func (q *quarantine) add(d *Degradation) *Degradation {
	q.mu.Lock()
	defer q.mu.Unlock()
	if old, ok := q.m[d.Benchmark]; ok {
		return old
	}
	q.m[d.Benchmark] = d
	return d
}

// get returns the benchmark's quarantine entry, or nil.
func (q *quarantine) get(name string) *Degradation {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.m[name]
}

// list returns the quarantined benchmarks sorted by name.
func (q *quarantine) list() []*Degradation {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Degradation, 0, len(q.m))
	for _, d := range q.m {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}

// degradedRow renders a quarantined benchmark as a table row: the name,
// a DEGRADED(<stage>) marker, and "-" for every remaining column.
func degradedRow(d *Degradation, width int) []string {
	row := make([]string, width)
	row[0] = d.Benchmark
	if width > 1 {
		row[1] = fmt.Sprintf("DEGRADED(%s)", d.Stage)
	}
	for i := 2; i < width; i++ {
		row[i] = "-"
	}
	return row
}

// benchCtx derives one benchmark's context from the render's, applying
// the per-benchmark timeout when one is set.
func (r render) benchCtx() (context.Context, context.CancelFunc) {
	if r.timeout > 0 {
		return context.WithTimeout(r.ctx, r.timeout)
	}
	return context.WithCancel(r.ctx)
}

// simulate compiles and simulates cb on the render's ISA (memoised end
// to end) under the per-benchmark deadline. A render whose context has
// ended starts nothing. A panic in the compile or the simulation cannot
// escape: both run inside a bench cache fill, which reports it as a
// StageWorker error.
func (r render) simulate(cb Combo) (*bench.Run, error) {
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	ctx, cancel := r.benchCtx()
	defer cancel()
	bd, err := bench.CompileISACtx(ctx, cb.Bench, cb.Optimize, r.isa)
	if err != nil {
		return nil, err
	}
	input := cb.Bench.Input1
	if cb.Input2 {
		input = cb.Bench.Input2
	}
	return bench.SimulateCtx(ctx, bd, input, cb.Geoms)
}

// run is simulate with quarantine semantics: an already-quarantined
// benchmark short-circuits, and a failure (error, recovered panic or
// deadline) is recorded and returned as a Degradation. Exactly one of
// the results is non-nil.
func (r render) run(cb Combo) (*bench.Run, *Degradation) {
	if d := r.q.get(cb.Bench.Name); d != nil {
		return nil, d
	}
	run, err := r.simulate(cb)
	if err != nil {
		return nil, r.q.record(cb.Bench.Name, err)
	}
	return run, nil
}

// rows renders one row per benchmark of set into t and returns each
// value column's mean over the healthy rows, summed in row order. Each
// benchmark runs as shape with its Bench filled in, and row turns that
// run into the cells after the benchmark's name and the row's values.
// A benchmark renders as one DEGRADED row, and counts in no mean, when
// its run is quarantined or when row returns the Degradation of a
// further run it asked for. With no healthy row every mean is 0.
func (r render) rows(t *Table, set []*bench.Benchmark, shape Combo,
	row func(*bench.Run) ([]string, []float64, *Degradation)) (mean func(col int) float64) {
	var sums []float64
	n := 0
	for _, b := range set {
		shape.Bench = b
		run, deg := r.run(shape)
		var cells []string
		var vals []float64
		if deg == nil {
			cells, vals, deg = row(run)
		}
		if deg != nil {
			t.Rows = append(t.Rows, degradedRow(deg, len(t.Header)))
			continue
		}
		t.Rows = append(t.Rows, append([]string{b.Name}, cells...))
		if sums == nil {
			sums = make([]float64, len(vals))
		}
		for k, v := range vals {
			sums[k] += v
		}
		n++
	}
	return func(col int) float64 {
		if n == 0 {
			return 0
		}
		return sums[col] / float64(n)
	}
}

// loadsInter is bench.LoadsInter under the per-benchmark deadline,
// quarantining the benchmark on failure like run. Exactly one of the
// results is non-nil.
func (r render) loadsInter(bd *bench.Build) ([]*pattern.Load, *Degradation) {
	ctx, cancel := r.benchCtx()
	defer cancel()
	loads, err := bench.LoadsInter(ctx, bd)
	if err != nil {
		return nil, r.q.record(bd.Bench.Name, err)
	}
	return loads, nil
}
