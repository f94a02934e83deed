// Graceful degradation for the table engine: a benchmark whose pipeline
// fails (or times out, or panics) is quarantined in a package-level
// degradation registry instead of aborting the whole render. Every
// table renders the quarantined benchmark as a DEGRADED(<stage>) row,
// excludes it from averages, and the rest of the suite is unaffected.
// A quarantined training benchmark is left out of the learning phase;
// the weights trained on the healthy remainder serve that render only
// (see TrainedReportISA). On a fault-free run nothing here fires and
// the rendered output is byte-identical to the pre-resilience engine.
package tables

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

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

var (
	degMu       sync.Mutex
	degraded    = map[string]*Degradation{}
	benchBudget time.Duration
)

// SetTimeout sets the per-benchmark deadline applied to every compile
// and simulate issued by the table engine; zero (the default) means no
// deadline. A benchmark that exceeds it degrades instead of hanging the
// render.
func SetTimeout(d time.Duration) {
	degMu.Lock()
	benchBudget = d
	degMu.Unlock()
}

// benchCtx derives the per-benchmark context from parent, applying the
// configured timeout when one is set.
func benchCtx(parent context.Context) (context.Context, context.CancelFunc) {
	degMu.Lock()
	d := benchBudget
	degMu.Unlock()
	if d > 0 {
		return context.WithTimeout(parent, d)
	}
	return context.WithCancel(parent)
}

// record quarantines a benchmark, deriving the stage from the error's
// StageError (StageWorker when the error carries no stage). The first
// recording wins; later failures of the same benchmark keep the
// original provenance.
func record(name string, err error) *Degradation {
	stage := core.StageWorker
	var se *core.StageError
	if errors.As(err, &se) {
		stage = se.Stage
	}
	degMu.Lock()
	defer degMu.Unlock()
	if d, ok := degraded[name]; ok {
		return d
	}
	d := &Degradation{Benchmark: name, Stage: stage, Err: err}
	degraded[name] = d
	return d
}

// degradationFor returns the benchmark's quarantine entry, or nil.
func degradationFor(name string) *Degradation {
	degMu.Lock()
	defer degMu.Unlock()
	return degraded[name]
}

// Degradations lists the quarantined benchmarks sorted by name.
func Degradations() []*Degradation {
	degMu.Lock()
	defer degMu.Unlock()
	out := make([]*Degradation, 0, len(degraded))
	for _, d := range degraded {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}

// ResetDegradations empties the quarantine (RenderAll calls it so each
// full render re-evaluates every benchmark; tests use it for isolation).
func ResetDegradations() {
	degMu.Lock()
	degraded = map[string]*Degradation{}
	degMu.Unlock()
}

// DegradedRow renders a quarantined benchmark as a table row: the name,
// a DEGRADED(<stage>) marker, and "-" for every remaining column.
func DegradedRow(d *Degradation, width int) []string {
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

// LoadSafeISA is LoadISACtx with quarantine semantics under the
// per-benchmark deadline: see Combo.runQuarantined. Exactly one of the
// results is non-nil.
func LoadSafeISA(b *bench.Benchmark, optimize, input2 bool, isaName string) (*Ctx, *Degradation) {
	run, d := Combo{Bench: b, Optimize: optimize, Input2: input2, Geoms: StdGeoms, ISA: isaName}.runQuarantined()
	if d != nil {
		return nil, d
	}
	return &Ctx{Bench: b, Build: run.Build, Run: run}, nil
}

// runQuarantined is runSafe with quarantine semantics: an
// already-degraded benchmark short-circuits, and a failure (error,
// recovered panic or timeout) is recorded and returned as a
// Degradation. A failure quarantines the benchmark as a whole (the
// registry is keyed by name, not ISA or geometry), which keeps every
// table's view of a sick benchmark consistent. Exactly one of the
// results is non-nil.
func (cb Combo) runQuarantined() (*bench.Run, *Degradation) {
	if d := degradationFor(cb.Bench.Name); d != nil {
		return nil, d
	}
	run, err := cb.runSafe(context.Background())
	if err != nil {
		return nil, record(cb.Bench.Name, err)
	}
	return run, nil
}

// loadsInterQuarantined is bench.LoadsInter under the per-benchmark
// deadline, quarantining the benchmark on failure like runQuarantined.
// Exactly one of the results is non-nil.
func loadsInterQuarantined(bd *bench.Build) ([]*pattern.Load, *Degradation) {
	ctx, cancel := benchCtx(context.Background())
	defer cancel()
	loads, err := bench.LoadsInter(ctx, bd)
	if err != nil {
		return nil, record(bd.Bench.Name, err)
	}
	return loads, nil
}

// Report summarises one RenderAll pass.
type Report struct {
	// Degraded lists the benchmarks quarantined during the pass, sorted
	// by name; empty on a fully healthy run.
	Degraded []*Degradation
}
