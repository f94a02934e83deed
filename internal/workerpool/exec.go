// The fill-path pipeline itself. Execute is the single definition of
// what an analyze or run job does — the daemon calls it directly in
// non-isolated mode, workers call it inside the sandbox — so the bytes
// a client sees cannot depend on which side ran the pipeline.
package workerpool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"delinq/internal/bench"
	"delinq/internal/classify"
	"delinq/internal/core"
	"delinq/internal/isa"
	"delinq/internal/metrics"
	"delinq/internal/tables"
)

// SetEval is the JSON shape of one selection-set evaluation.
type SetEval struct {
	Selected int     `json:"selected"`
	Loads    int     `json:"loads"`
	Pi       float64 `json:"pi"`
	Rho      float64 `json:"rho"`
}

func evalJSON(ev metrics.SetEval) SetEval {
	return SetEval{Selected: ev.Selected, Loads: ev.Loads, Pi: ev.Pi, Rho: ev.Rho}
}

// AnalyzeResponse is the success payload of an analyze job.
type AnalyzeResponse struct {
	Benchmark  string   `json:"benchmark,omitempty"`
	ISA        string   `json:"isa,omitempty"`
	Optimize   bool     `json:"optimize"`
	Inter      bool     `json:"inter"`
	Heuristic  SetEval  `json:"heuristic"`
	OKN        SetEval  `json:"okn"`
	BDH        SetEval  `json:"bdh"`
	Delinquent []string `json:"delinquent"`
}

// RunResponse is the success payload of a run job.
type RunResponse struct {
	Benchmark string  `json:"benchmark,omitempty"`
	ISA       string  `json:"isa,omitempty"`
	Exit      int32   `json:"exit"`
	Insts     int64   `json:"insts"`
	Accesses  uint64  `json:"accesses"`
	Misses    uint64  `json:"misses"`
	MissRate  float64 `json:"missRate"`
	Output    string  `json:"output"`
}

// ValidateTarget checks the source/benchmark request shape shared by
// analyze and run, returning zero or an HTTP status and message for the
// client.
func ValidateTarget(source, benchmark, isaName string, args []int32) (status int, msg string) {
	if _, err := isa.ByName(isaName); err != nil {
		return http.StatusBadRequest, err.Error()
	}
	switch {
	case source == "" && benchmark == "":
		return http.StatusBadRequest, "one of source or benchmark is required"
	case source != "" && benchmark != "":
		return http.StatusBadRequest, "source and benchmark are mutually exclusive"
	case benchmark != "":
		if bench.ByName(benchmark) == nil {
			return http.StatusBadRequest, fmt.Sprintf("unknown benchmark %q", benchmark)
		}
		if len(args) > 0 {
			return http.StatusBadRequest, "args are only valid with source (benchmarks carry their inputs)"
		}
	}
	return 0, ""
}

// Execute runs one job's pipeline in the calling process and renders
// its outcome. It never returns nil.
func Execute(ctx context.Context, job Job) *JobResult {
	if job.Kind != JobAnalyze && job.Kind != JobRun {
		return errResult(http.StatusBadRequest, "unknown job kind %q", job.Kind)
	}
	if job.Benchmark != "" {
		return executeBenchmark(ctx, job)
	}
	return executeSource(ctx, job)
}

// errResult renders a client-visible failure.
func errResult(status int, format string, args ...any) *JobResult {
	return &JobResult{Status: status, Err: fmt.Sprintf(format, args...)}
}

// PipelineResult maps a pipeline failure to its answer: a server-side
// 500 carrying the StageError's stage and benchmark, when err has them.
// It is the daemon's one such mapping: a job's failure in process or in
// a worker, a worker's death, a table render's failure and a recovered
// serve-stage panic all take it.
func PipelineResult(err error) *JobResult {
	res := &JobResult{Status: http.StatusInternalServerError, Err: err.Error()}
	var se *core.StageError
	if errors.As(err, &se) {
		res.Stage = string(se.Stage)
		res.Benchmark = se.Benchmark
	}
	return res
}

// okJSON renders a success payload with the daemon's canonical JSON
// encoding (marshal + trailing newline, matching writeJSON).
func okJSON(v any) *JobResult {
	b, err := json.Marshal(v)
	if err != nil {
		return PipelineResult(core.WrapStage("", core.StageServe, err))
	}
	return &JobResult{
		Status:      http.StatusOK,
		ContentType: "application/json",
		Body:        append(b, '\n'),
	}
}

// executeSource runs the ad-hoc pipeline: compile, simulate and, for an
// analyze job, identify. Compile failures are the client's (400); later
// stages are ours (500).
func executeSource(ctx context.Context, job Job) *JobResult {
	img, err := core.BuildSourceISA(job.Source, job.Optimize, job.ISA)
	if err != nil {
		return errResult(http.StatusBadRequest, "compile: %v", err)
	}
	sim, err := core.SimulateCtx(ctx, img, job.Args)
	if err != nil {
		return PipelineResult(err)
	}
	if job.Kind == JobRun {
		return runResponse(job, "", sim)
	}
	res, err := core.IdentifyImageCtx(ctx, img, core.Options{Profile: sim, Interprocedural: job.Inter})
	if err != nil {
		return PipelineResult(err)
	}
	return analyzeResponse(job, "", res, sim)
}

// executeBenchmark runs a registered benchmark through the memoised
// bench stack (and its fault seams), scoring the build's loads against
// the run's profile as core.IdentifyImageCtx would. Failures here are
// server-side: the corpus is ours, so nothing maps to 400.
func executeBenchmark(ctx context.Context, job Job) *JobResult {
	b := bench.ByName(job.Benchmark)
	if b == nil {
		return errResult(http.StatusBadRequest, "unknown benchmark %q", job.Benchmark)
	}
	bd, err := bench.CompileISACtx(ctx, b, job.Optimize, job.ISA)
	if err != nil {
		return PipelineResult(err)
	}
	input := b.Input1
	if job.Input2 {
		input = b.Input2
	}
	run, err := bench.SimulateCtx(ctx, bd, input, tables.StdGeoms)
	if err != nil {
		return PipelineResult(err)
	}
	sim := &run.Simulation
	if job.Kind == JobRun {
		return runResponse(job, b.Name, sim)
	}
	loads := bd.Loads
	if job.Inter {
		if loads, err = bench.LoadsInter(ctx, bd); err != nil {
			return PipelineResult(err)
		}
	}
	cfg := classify.DefaultConfig()
	res := &core.Result{Image: bd.Image, Prog: bd.Prog, Loads: loads, Scored: classify.Score(loads, sim, cfg), Config: cfg}
	return analyzeResponse(job, b.Name, res, sim)
}

// analyzeResponse evaluates an identification and the OKN/BDH baselines
// on the baseline cache, which both pipelines simulate at index
// tables.GeomBaseline: the ad-hoc one simulates only the baseline, the
// benchmark one all of tables.StdGeoms.
func analyzeResponse(job Job, name string, res *core.Result, sim *core.Simulation) *JobResult {
	okn, bdh := res.Baselines(sim, tables.GeomBaseline)
	delinquent := res.Delinquent()
	desc := make([]string, 0, len(delinquent))
	for _, sc := range delinquent {
		desc = append(desc, core.Describe(sc))
	}
	return okJSON(&AnalyzeResponse{
		Benchmark:  name,
		ISA:        job.ISA,
		Optimize:   job.Optimize,
		Inter:      job.Inter,
		Heuristic:  evalJSON(res.Evaluate(sim, tables.GeomBaseline)),
		OKN:        evalJSON(okn),
		BDH:        evalJSON(bdh),
		Delinquent: desc,
	})
}

// runResponse renders a run's outcome and its baseline-cache statistics.
func runResponse(job Job, name string, sim *core.Simulation) *JobResult {
	st := sim.Caches[tables.GeomBaseline].Stats()
	return okJSON(&RunResponse{
		Benchmark: name,
		ISA:       job.ISA,
		Exit:      sim.Result.Exit,
		Insts:     sim.Result.Insts,
		Accesses:  st.Accesses,
		Misses:    st.Misses,
		MissRate:  st.MissRate(),
		Output:    sim.Result.Output,
	})
}
