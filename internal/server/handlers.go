// The daemon's endpoints. POST /v1/analyze and POST /v1/run accept
// either ad-hoc mini-C source or the name of a registered benchmark
// (the latter rides the memoised bench stack, so repeated requests for
// the same benchmark share one compile and one simulation);
// GET /v1/table/{id} renders one paper table. /healthz, /readyz and
// /metrics bypass admission control so the daemon stays observable
// under overload and during drain.
//
// The pipeline itself lives in internal/workerpool.Execute: analyze
// and run handlers build a workerpool.Job and hand it to execJob,
// which runs it in-process or — with Config.Isolate — inside a
// sandboxed subprocess from the supervised pool. Everything above that
// seam (validation, admission, cache, WAL) is identical in both modes,
// and so are the response bytes.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"delinq/internal/faultinject"
	"delinq/internal/tables"
	"delinq/internal/workerpool"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/analyze", s.api("analyze", s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/analyze/batch", s.api("batch", s.handleBatch))
	s.mux.HandleFunc("POST /v1/run", s.api("run", s.handleRun))
	s.mux.HandleFunc("GET /v1/table/{id}", s.api("table", s.handleTable))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// maxBodyBytes bounds request bodies; mini-C sources are small.
const maxBodyBytes = 1 << 20

// decodeJSON parses the request body strictly (unknown fields are a
// 400, catching client typos before they silently change semantics).
// A body past maxBodyBytes is its own status: 413, so clients can tell
// "shrink the request" from "fix the request".
func decodeJSON(w http.ResponseWriter, r *http.Request, into any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errorf(http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", mbe.Limit)
		}
		return errorf(http.StatusBadRequest, "bad request body: %v", err)
	}
	return nil
}

// --- POST /v1/analyze ----------------------------------------------------------

type analyzeRequest struct {
	// Source is ad-hoc mini-C to analyse; Benchmark names a registered
	// benchmark instead. Exactly one must be set.
	Source    string  `json:"source"`
	Benchmark string  `json:"benchmark"`
	Optimize  bool    `json:"optimize"`
	Inter     bool    `json:"inter"`
	Input2    bool    `json:"input2"`
	Args      []int32 `json:"args"`
	// ISA names the machine description to build for ("mips", "arm");
	// empty means mips. Unknown names are a 400.
	ISA string `json:"isa"`
}

func (r analyzeRequest) job() workerpool.Job {
	return workerpool.Job{
		Kind:      workerpool.JobAnalyze,
		Source:    r.Source,
		Benchmark: r.Benchmark,
		Optimize:  r.Optimize,
		Inter:     r.Inter,
		Input2:    r.Input2,
		Args:      r.Args,
		ISA:       r.ISA,
	}
}

func (s *Server) handleAnalyze(ctx context.Context, w http.ResponseWriter, r *http.Request) *apiError {
	var req analyzeRequest
	if ae := decodeJSON(w, r, &req); ae != nil {
		return ae
	}
	if ae := validateTarget(req.Source, req.Benchmark, req.ISA, req.Args); ae != nil {
		return ae
	}
	fill := s.jobFill(ctx, req.job(), "serve:analyze",
		func() (func(), *apiError) { return s.admit(ctx) })
	return s.serveCached(ctx, w, analyzeCacheKey(req), fill)
}

// jobFill builds the singleflight fill for one pipeline job: it admits
// (through acquire — per-request normally, a shared lazy slot for
// batches) and executes the job (in-process or in a sandboxed worker).
// Only a clean success is cacheable.
func (s *Server) jobFill(ctx context.Context, job workerpool.Job, crashSeam string, acquire func() (func(), *apiError)) fillFunc {
	return func() (*cachedResponse, bool, error) {
		release, ae := acquire()
		if ae != nil {
			return nil, false, ae
		}
		defer release()
		faultinject.Crash(faultinject.WorkerPanic, crashSeam)

		res, ae := s.execJob(ctx, job)
		if ae != nil {
			return nil, false, ae
		}
		return &cachedResponse{contentType: res.ContentType, body: res.Body}, true, nil
	}
}

// execJob runs one job — directly, or through the sandbox pool when
// the daemon is isolating — and maps the outcome to the response
// envelope. A worker death (the pool's error return) surfaces exactly
// like any other pipeline failure: a 500 with worker-stage provenance.
func (s *Server) execJob(ctx context.Context, job workerpool.Job) (*workerpool.JobResult, *apiError) {
	var res *workerpool.JobResult
	if s.pool != nil {
		var err error
		if res, err = s.pool.Do(ctx, job); err != nil {
			res = workerpool.PipelineResult(err)
		}
	} else {
		res = workerpool.Execute(ctx, job)
	}
	if res.Status != http.StatusOK {
		return nil, resultError(res)
	}
	return res, nil
}

// validateTarget checks the source/benchmark request shape shared by
// analyze and run.
func validateTarget(source, benchmark, isaName string, args []int32) *apiError {
	if status, msg := workerpool.ValidateTarget(source, benchmark, isaName, args); status != 0 {
		return errorf(status, "%s", msg)
	}
	return nil
}

// --- POST /v1/run ----------------------------------------------------------

type runRequest struct {
	Source    string  `json:"source"`
	Benchmark string  `json:"benchmark"`
	Optimize  bool    `json:"optimize"`
	Input2    bool    `json:"input2"`
	Args      []int32 `json:"args"`
	// ISA names the machine description to build for ("mips", "arm");
	// empty means mips. Unknown names are a 400.
	ISA string `json:"isa"`
}

func (r runRequest) job() workerpool.Job {
	return workerpool.Job{
		Kind:      workerpool.JobRun,
		Source:    r.Source,
		Benchmark: r.Benchmark,
		Optimize:  r.Optimize,
		Input2:    r.Input2,
		Args:      r.Args,
		ISA:       r.ISA,
	}
}

func (s *Server) handleRun(ctx context.Context, w http.ResponseWriter, r *http.Request) *apiError {
	var req runRequest
	if ae := decodeJSON(w, r, &req); ae != nil {
		return ae
	}
	if ae := validateTarget(req.Source, req.Benchmark, req.ISA, req.Args); ae != nil {
		return ae
	}
	fill := s.jobFill(ctx, req.job(), "serve:run",
		func() (func(), *apiError) { return s.admit(ctx) })
	return s.serveCached(ctx, w, runCacheKey(req), fill)
}

// --- GET /v1/table/{id} ----------------------------------------------------------

// handleTable resolves the id before the cache and admission, the way
// validateTarget runs before the analyze cache: an unknown id is a 400
// that takes no execution slot, and "S3" and "s3" share one entry.
func (s *Server) handleTable(ctx context.Context, w http.ResponseWriter, r *http.Request) *apiError {
	id, err := tables.CanonicalID(r.PathValue("id"))
	if err != nil {
		return errorf(http.StatusBadRequest, "%v", err)
	}
	fill := func() (*cachedResponse, bool, error) {
		release, ae := s.admit(ctx)
		if ae != nil {
			return nil, false, ae
		}
		defer release()
		faultinject.Crash(faultinject.WorkerPanic, "serve:table")

		body, degraded, ae := s.renderTable(ctx, id)
		if ae != nil {
			return nil, false, ae
		}
		// A degraded render is still an answer but never a cached one:
		// the next request retries the quarantined benchmarks instead of
		// replaying the partial table until eviction.
		cr := &cachedResponse{
			contentType: "text/plain; charset=utf-8",
			body:        []byte(body),
			degraded:    degraded,
		}
		return cr, degraded == 0, nil
	}
	return s.serveCached(ctx, w, tableCacheKey(id), fill)
}

// --- POST /v1/analyze/batch ----------------------------------------------------------

// maxBatch caps the requests in one batch call.
const maxBatch = 64

type batchRequest struct {
	Requests []analyzeRequest `json:"requests"`
}

// batchItem is one per-request result: Status mirrors what the same
// request would have answered as a single call; Response carries the
// success payload, the embedded apiError the failure envelope the
// single call would have written.
type batchItem struct {
	Cache    string          `json:"cache,omitempty"`
	Status   int             `json:"status"`
	Response json.RawMessage `json:"response,omitempty"`
	apiError
}

type batchResponse struct {
	Results []batchItem `json:"results"`
}

// handleBatch amortizes a request set: one execution slot admits the
// whole batch (acquired lazily on the first cache miss, so an all-hit
// batch bypasses admission entirely), and the memoised bench stack
// underneath shares compiles and simulations across items naming the
// same benchmark. Items fail independently; the batch itself only
// fails on malformed envelopes.
func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) *apiError {
	var req batchRequest
	if ae := decodeJSON(w, r, &req); ae != nil {
		return ae
	}
	if len(req.Requests) == 0 {
		return errorf(http.StatusBadRequest, "batch wants at least one request")
	}
	if len(req.Requests) > maxBatch {
		return errorf(http.StatusBadRequest, "batch is capped at %d requests, got %d", maxBatch, len(req.Requests))
	}
	faultinject.Crash(faultinject.WorkerPanic, "serve:batch")

	var release func()
	defer func() {
		if release != nil {
			release()
		}
	}()
	acquire := func() (func(), *apiError) {
		if release == nil {
			rel, ae := s.admit(ctx)
			if ae != nil {
				return nil, ae
			}
			release = rel
		}
		// Items share the batch's slot; the real release happens once,
		// after the last item.
		return func() {}, nil
	}

	resp := batchResponse{Results: make([]batchItem, 0, len(req.Requests))}
	for _, item := range req.Requests {
		resp.Results = append(resp.Results, s.batchOne(ctx, item, acquire))
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}

// batchOne answers one batch item through the same validate → cache →
// fill path a single analyze request takes.
func (s *Server) batchOne(ctx context.Context, req analyzeRequest, acquire func() (func(), *apiError)) batchItem {
	ae := validateTarget(req.Source, req.Benchmark, req.ISA, req.Args)
	var outcome string
	if ae == nil {
		fill := s.jobFill(ctx, req.job(), "serve:analyze", acquire)
		cr, o, err := s.doCached(ctx, analyzeCacheKey(req), fill)
		outcome = o.String()
		if err == nil {
			return batchItem{
				Cache:    outcome,
				Status:   http.StatusOK,
				Response: json.RawMessage(bytes.TrimSpace(cr.body)),
			}
		}
		ae = s.asAPIError(err)
	}
	s.countError(ae)
	return batchItem{Cache: outcome, Status: ae.Status, apiError: *ae}
}

// renderTable regenerates one table on an engine of its own, under the
// request context: renders run concurrently, sharing only the memoised
// builds, simulations and trained weights, and the request's deadline,
// its client's disconnect or the drain abort stops the render, which
// then starts no further benchmark. Renders always run in the daemon
// process: a table reads dozens of memoised builds and simulations,
// which a sandboxed worker would recompute in a memo of its own.
func (s *Server) renderTable(ctx context.Context, id string) (string, int, *apiError) {
	var buf bytes.Buffer
	degs, err := tables.Engine{}.Render(ctx, &buf, 0, id)
	if err != nil {
		return "", 0, resultError(workerpool.PipelineResult(err))
	}
	// A degraded render is still an answer — the CLI exits 0 on
	// quarantined rows and the daemon follows suit, serving the partial
	// table with a Delinq-Degraded count so clients can tell.
	return buf.String(), len(degs), nil
}

// --- health and observability ----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeText(w, http.StatusOK, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeText(w, http.StatusServiceUnavailable, "draining\n")
		return
	}
	s.writeText(w, http.StatusOK, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.reg.WriteTo(&buf)
	s.writeText(w, http.StatusOK, buf.String())
}
