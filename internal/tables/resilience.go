// Graceful degradation for the table engine: a benchmark whose pipeline
// fails (or times out, or panics) is quarantined in its render's
// quarantine instead of aborting the whole render. Every table renders
// the quarantined benchmark as a DEGRADED(<stage>) row, excludes it from
// averages, and the rest of the suite is unaffected. A quarantined
// training benchmark is left out of the learning phase; the weights
// trained on the healthy remainder serve the renders that ran or joined
// that phase only (see trained). On a fault-free run nothing here fires
// and the rendered output is byte-identical to the pre-resilience
// engine.
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

// load is run on the standard geometry bundle, as a Ctx. Exactly one of
// the results is non-nil.
func (r render) load(b *bench.Benchmark, optimize, input2 bool) (*Ctx, *Degradation) {
	run, d := r.run(Combo{Bench: b, Optimize: optimize, Input2: input2, Geoms: StdGeoms})
	if d != nil {
		return nil, d
	}
	return &Ctx{Bench: b, Build: run.Build, Run: run}, nil
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
