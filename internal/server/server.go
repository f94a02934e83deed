// Package server is the hardened analysis daemon: an HTTP JSON API
// serving concurrent delinquent-load analyses off the existing
// bench/core/pattern/tables stack. Robustness is the design centre:
//
//   - admission control (semaphore + bounded queue) sheds overload with
//     429 + Retry-After instead of queueing unboundedly;
//   - per-request deadlines propagate through the pipeline's context
//     plumbing down to the VM's instruction-budget sentinel; a table
//     render too, on a tables.Engine of its own, so renders run
//     concurrently and a deadline, a disconnect or the drain abort
//     stops one;
//   - per-request panic isolation: a recovered handler panic answers
//     500 with serve-stage provenance, the process never dies;
//   - graceful drain: BeginDrain flips /readyz to 503 and refuses new
//     API work, Drain waits for in-flight requests up to a deadline,
//     then aborts stragglers via context cancellation.
//
// The pipeline is deterministic, so a failed request fails the same way
// when retried and a computed answer never goes stale: the daemon keeps
// no failure state between requests and cached results never expire. A
// failing request costs what any miss costs, bounded by admission and
// its deadline, and touches no other request.
//
// Every counter the controller maintains is published on GET /metrics
// through internal/metrics.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"delinq/internal/core"
	"delinq/internal/metrics"
	"delinq/internal/rescache"
	"delinq/internal/workerpool"
)

// Config shapes one daemon.
type Config struct {
	// Addr is the listen address for ListenAndServe (default :8080).
	Addr string
	// MaxInflight bounds concurrently executing API requests
	// (default 8).
	MaxInflight int
	// Queue bounds requests waiting for an execution slot; beyond it
	// requests are shed with 429 (default 32).
	Queue int
	// ReqTimeout is the per-request deadline propagated through the
	// pipeline; zero means no deadline.
	ReqTimeout time.Duration
	// CacheEntries caps the result cache's retained entries
	// (default 1024).
	CacheEntries int
	// CacheBytes caps the result cache's retained bytes (default 64 MiB).
	CacheBytes int64
	// StateDir, when set, persists the result cache through a crash-safe
	// write-ahead log in this directory: fills are journaled, boot
	// replays them (OpenState must be called before serving), and a
	// restarted daemon answers warm. Empty means volatile-only.
	StateDir string
	// Isolate executes analyze/run fills in sandboxed subprocess
	// workers from a supervised pool, so a request that OOMs or crashes
	// kills one worker, never the daemon. Everything above the fill —
	// cache, coalescing, admission, WAL — is unchanged, and response
	// bytes are identical to in-process mode.
	Isolate bool
	// Workers bounds concurrently executing sandbox workers
	// (default MaxInflight). Only meaningful with Isolate.
	Workers int
	// WorkerMem is the per-worker memory ceiling in bytes (default
	// 512 MiB; negative = no ceiling). Only meaningful with Isolate.
	WorkerMem int64
	// WorkerCommand overrides the worker argv (tests re-exec their own
	// binary); empty means this executable's `worker` subcommand.
	WorkerCommand []string
	// WorkerEnv is extra environment for each worker.
	WorkerEnv []string
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.Queue < 0 {
		c.Queue = 0
	} else if c.Queue == 0 {
		c.Queue = 32
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Isolate {
		if c.Workers <= 0 {
			c.Workers = c.MaxInflight
		}
		if c.WorkerMem == 0 {
			c.WorkerMem = 512 << 20
		} else if c.WorkerMem < 0 {
			c.WorkerMem = 0 // explicit "no ceiling"
		}
	}
	return c
}

// Server is one analysis daemon.
type Server struct {
	cfg   Config
	adm   *admission
	reg   *metrics.Registry
	mux   *http.ServeMux
	cache *rescache.Cache[*cachedResponse]
	state *stateStore      // nil unless OpenState attached a StateDir
	pool  *workerpool.Pool // nil unless Config.Isolate

	baseCtx    context.Context // cancelled to abort straggling requests
	baseCancel context.CancelFunc
	draining   atomic.Bool

	// The drain gate: entry and the draining flag are checked under one
	// lock, so BeginDrain cannot race a request past the check, and
	// drainDone closes exactly when the last pre-drain request leaves.
	drainMu   sync.Mutex
	inflightN int
	drainDone chan struct{}
	drainOnce sync.Once

	// httpSrv serves every listener. It exists from New on, so a Shutdown
	// that runs before Serve still stops it: Serve then returns at once.
	httpSrv *http.Server
}

// New builds a daemon from cfg (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		adm:        newAdmission(cfg.MaxInflight, cfg.Queue),
		reg:        metrics.NewRegistry(),
		mux:        http.NewServeMux(),
		cache:      rescache.New(rescache.Config{MaxEntries: cfg.CacheEntries, MaxBytes: cfg.CacheBytes}, respSize),
		baseCtx:    ctx,
		baseCancel: cancel,
		drainDone:  make(chan struct{}),
	}
	s.httpSrv = &http.Server{
		Handler: s.mux,
		// Request contexts derive from baseCtx, so aborting stragglers
		// at the end of a drain cancels every in-flight pipeline.
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
	}
	if cfg.Isolate {
		s.pool = workerpool.New(workerpool.Config{
			Workers:  cfg.Workers,
			MemLimit: cfg.WorkerMem,
			Command:  cfg.WorkerCommand,
			Env:      cfg.WorkerEnv,
		})
	}
	// Pre-register the headline counters so a fresh daemon exposes them
	// at zero instead of omitting them until first increment.
	for _, name := range []string{
		"delinq_requests_total",
		"delinq_requests_shed_total",
		"delinq_errors_total",
		"delinq_panics_recovered_total",
	} {
		s.reg.Counter(name)
	}
	s.reg.Gauge("delinq_requests_inflight", s.adm.Inflight)
	s.reg.Gauge("delinq_requests_queued", s.adm.Queued)
	s.reg.Gauge("delinq_draining", func() int64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	// Cache telemetry reads the cache's own counters, so /metrics can
	// never drift from what the cache actually did — the loadtest
	// harness cross-checks these against client-observed outcomes.
	stat := func(f func(rescache.Stats) int64) func() int64 {
		return func() int64 { return f(s.cache.Stats()) }
	}
	s.reg.Gauge("delinq_cache_hits_total", stat(func(st rescache.Stats) int64 { return int64(st.Hits) }))
	s.reg.Gauge("delinq_cache_warm_hits_total", stat(func(st rescache.Stats) int64 { return int64(st.WarmHits) }))
	s.reg.Gauge("delinq_cache_misses_total", stat(func(st rescache.Stats) int64 { return int64(st.Misses) }))
	s.reg.Gauge("delinq_cache_coalesced_total", stat(func(st rescache.Stats) int64 { return int64(st.Joined) }))
	s.reg.Gauge("delinq_cache_errors_total", stat(func(st rescache.Stats) int64 { return int64(st.Errors) }))
	s.reg.Gauge("delinq_cache_uncacheable_total", stat(func(st rescache.Stats) int64 { return int64(st.Uncacheable) }))
	s.reg.Gauge("delinq_cache_evicted_size_total", stat(func(st rescache.Stats) int64 { return int64(st.EvictedSize) }))
	s.reg.Gauge("delinq_cache_entries", stat(func(st rescache.Stats) int64 { return int64(st.Entries) }))
	s.reg.Gauge("delinq_cache_bytes", stat(func(st rescache.Stats) int64 { return st.Bytes }))
	if s.pool != nil {
		// Like the cache gauges, worker telemetry reads the pool's own
		// counters so /metrics cannot drift from what the pool did: the
		// chaos tests assert exact spawn/kill/recycle/oom counts here.
		wstat := func(f func(workerpool.Stats) int64) func() int64 {
			return func() int64 { return f(s.pool.Stats()) }
		}
		s.reg.Gauge("delinq_worker_spawns_total", wstat(func(st workerpool.Stats) int64 { return st.Spawns }))
		s.reg.Gauge("delinq_worker_spawn_failures_total", wstat(func(st workerpool.Stats) int64 { return st.SpawnFailures }))
		s.reg.Gauge("delinq_worker_deaths_total", wstat(func(st workerpool.Stats) int64 { return st.Deaths }))
		s.reg.Gauge("delinq_worker_kills_total", wstat(func(st workerpool.Stats) int64 { return st.Kills }))
		s.reg.Gauge("delinq_worker_recycles_total", wstat(func(st workerpool.Stats) int64 { return st.Recycles }))
		s.reg.Gauge("delinq_worker_ooms_total", wstat(func(st workerpool.Stats) int64 { return st.OOMs }))
		s.reg.Gauge("delinq_worker_requests_total", wstat(func(st workerpool.Stats) int64 { return st.Requests }))
		s.reg.Gauge("delinq_worker_failures_total", wstat(func(st workerpool.Stats) int64 { return st.Failures }))
		s.reg.Gauge("delinq_worker_active", wstat(func(st workerpool.Stats) int64 { return st.Active }))
		s.reg.Gauge("delinq_worker_idle", wstat(func(st workerpool.Stats) int64 { return st.Idle }))
	}
	s.routes()
	return s
}

// Metrics exposes the daemon's registry (tests and embedders).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handler returns the daemon's HTTP handler (httptest and embedders).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe listens on cfg.Addr and serves until Shutdown. The
// returned listener address callback, when non-nil, receives the bound
// address before serving starts (so :0 callers learn their port).
func (s *Server) ListenAndServe(onListen func(addr net.Addr)) error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return core.WrapStage("", core.StageServe, err)
	}
	if onListen != nil {
		onListen(l.Addr())
	}
	return s.Serve(l)
}

// Serve serves connections from l until Shutdown; after Shutdown it
// closes l and returns at once. http.ErrServerClosed is swallowed: a
// drained shutdown is a success, not an error.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// enterRequest admits one API request through the drain gate; false
// means the daemon is draining and the request must be refused.
func (s *Server) enterRequest() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflightN++
	return true
}

// enteredRequests reports how many API requests are past the drain
// gate (admitted or not); tests synchronise on it.
func (s *Server) enteredRequests() int {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.inflightN
}

// leaveRequest retires one API request; the last one out during a
// drain releases Drain.
func (s *Server) leaveRequest() {
	s.drainMu.Lock()
	s.inflightN--
	if s.draining.Load() && s.inflightN == 0 {
		s.drainOnce.Do(func() { close(s.drainDone) })
	}
	s.drainMu.Unlock()
}

// BeginDrain flips the daemon into draining mode: /readyz answers 503
// and new API requests are refused with 503. Idempotent.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.draining.Store(true)
	if s.inflightN == 0 {
		s.drainOnce.Do(func() { close(s.drainDone) })
	}
	s.drainMu.Unlock()
}

// Drain gracefully quiesces the daemon: it begins draining, waits for
// in-flight API requests to complete, and — if ctx expires first —
// aborts the stragglers by cancelling every request context, then waits
// for them to unwind. It returns ctx.Err() when the drain deadline
// forced an abort, nil for a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	select {
	case <-s.drainDone:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-s.drainDone // cancellation unwinds the stragglers promptly
		return ctx.Err()
	}
}

// Shutdown drains and then closes the listener and connections: the
// full SIGTERM path. The ctx deadline bounds the whole shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	drainErr := s.Drain(ctx)
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		s.httpSrv.Close()
	}
	s.baseCancel()
	// The drain (or its abort) has flushed every fill out of the pool,
	// so the sandbox workers are all idle: retire them.
	if s.pool != nil {
		s.pool.Close()
	}
	// With all fills drained, the durable log is quiescent: sync and
	// close it so the next boot replays a clean tail.
	s.state.close()
	return drainErr
}

// --- request plumbing ----------------------------------------------------------

// apiError is the JSON error envelope; Status is the HTTP code and
// retryAfter, when positive, becomes a Retry-After header. A batch item
// embeds it, so Err is omitempty: a success item carries no "error".
type apiError struct {
	Status    int    `json:"-"`
	Err       string `json:"error,omitempty"`
	Stage     string `json:"stage,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`

	retryAfter time.Duration
}

// Error makes apiError a Go error so it travels intact through the
// result cache's singleflight layer: coalesced waiters of a failed fill
// receive the exact envelope the executor produced.
func (e *apiError) Error() string { return e.Err }

func errorf(status int, format string, args ...any) *apiError {
	return &apiError{Status: status, Err: fmt.Sprintf(format, args...)}
}

// resultError is the envelope of a failed job result. Every pipeline
// failure reaches the client through it, mapped by
// workerpool.PipelineResult, so an answer cannot depend on which side
// ran the pipeline or on which layer failed.
func resultError(res *workerpool.JobResult) *apiError {
	return &apiError{Status: res.Status, Err: res.Err, Stage: res.Stage, Benchmark: res.Benchmark}
}

// panicError is the envelope of a recovered serve-stage panic, whether
// api's recover caught it or a fill's *rescache.PanicError carried it:
// a 500 at the serve stage. It counts the panic.
func (s *Server) panicError(v any) *apiError {
	s.reg.Counter("delinq_panics_recovered_total").Inc()
	err := core.WrapStage("", core.StageServe, fmt.Errorf("recovered panic: %v", v))
	return resultError(workerpool.PipelineResult(err))
}

// countError is the daemon's one rule for counting a failed answer, a
// whole response or a batch item: a 500 counts once in
// delinq_errors_total and once under its stage. A 429, a 503 and a 4xx
// are the load's or the client's outcome, not a failure, and never
// count.
func (s *Server) countError(ae *apiError) {
	if ae.Status != http.StatusInternalServerError {
		return
	}
	s.reg.Counter("delinq_errors_total").Inc()
	if ae.Stage != "" {
		s.reg.Counter("delinq_errors_" + ae.Stage + "_total").Inc()
	}
}

// handlerFunc is one API endpoint: it returns a non-nil apiError to
// fail the request, having written nothing, or writes its own success
// response and returns nil.
type handlerFunc func(ctx context.Context, w http.ResponseWriter, r *http.Request) *apiError

// api wraps an endpoint with the full robustness chain: request
// counting, drain refusal, panic isolation, the per-request deadline,
// and response-code accounting. Admission control happens deeper, in
// the cache-miss fill path (Server.admit): a request answered from the
// result cache never needs an execution slot, so only work that will
// actually run the pipeline contends for the semaphore and queue.
func (s *Server) api(name string, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter("delinq_requests_total").Inc()
		s.reg.Counter("delinq_requests_" + name + "_total").Inc()
		if !s.enterRequest() {
			s.writeError(w, &apiError{Status: http.StatusServiceUnavailable, Err: "draining", retryAfter: time.Second})
			return
		}
		defer s.leaveRequest()

		// The request context: client disconnect, the drain abort
		// (baseCtx), and the per-request deadline all cancel it. It is
		// built before admission so a queued request aborts with the rest
		// of the stragglers when a drain deadline forces cancellation.
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(s.baseCtx, cancel)
		defer stop()
		if s.cfg.ReqTimeout > 0 {
			var tcancel context.CancelFunc
			ctx, tcancel = context.WithTimeout(ctx, s.cfg.ReqTimeout)
			defer tcancel()
		}

		defer func() {
			if rec := recover(); rec != nil {
				s.writeError(w, s.panicError(rec))
			}
		}()

		if ae := h(ctx, w, r); ae != nil {
			s.writeError(w, ae)
		}
	}
}

// writeError counts a failed answer and renders its JSON envelope,
// with a whole-seconds Retry-After header when the error carries a
// retryAfter.
func (s *Server) writeError(w http.ResponseWriter, ae *apiError) {
	s.countError(ae)
	if ae.retryAfter > 0 {
		secs := int64((ae.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	s.writeJSON(w, ae.Status, ae)
}

// writeJSON renders v with a stable encoding and counts the response.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b = []byte(`{"error":"response encoding failed"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
	s.reg.Counter("delinq_responses_" + strconv.Itoa(status) + "_total").Inc()
}

// writeText renders a plain-text body and counts the response.
func (s *Server) writeText(w http.ResponseWriter, status int, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprint(w, body)
	s.reg.Counter("delinq_responses_" + strconv.Itoa(status) + "_total").Inc()
}
