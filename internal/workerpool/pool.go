// The supervisor. A Pool owns a set of sandbox subprocesses and
// round-trips jobs to them, absorbing every way a worker can die —
// SIGKILL, OOM, crash, torn frame, hung pipeline — into an ordinary
// worker-stage error for the layers above.
package workerpool

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"delinq/internal/core"
	"delinq/internal/faultinject"
)

// Config shapes one pool. The zero value takes defaults.
type Config struct {
	// Workers bounds concurrently executing workers (default 4). Excess
	// Do calls queue on the pool's semaphore.
	Workers int
	// MemLimit is the per-worker memory ceiling in bytes, enforced by
	// the worker's own watchdog (0 = no ceiling). A worker whose
	// post-request RSS reaches 80% of it is recycled.
	MemLimit int64
	// MaxRequests recycles a worker after it has served this many
	// requests (default 128; negative = never).
	MaxRequests int
	// Command is the worker argv; empty means the running executable's
	// hidden `worker` subcommand. Tests override it to re-exec the test
	// binary.
	Command []string
	// Env is extra environment appended to the inherited one for each
	// worker (tests route self-exec markers through it).
	Env []string
}

// killGrace is how long the supervisor waits for a worker to answer on
// its own before the SIGKILL backstop: for the in-band error past a
// request deadline, and for the exit after a graceful retire.
const killGrace = 2 * time.Second

// Stats is a snapshot of the pool's lifecycle counters. The
// conservation invariant Spawns == Deaths + Recycles + Active + Idle
// holds at quiescence.
type Stats struct {
	// Spawns counts worker processes started; SpawnFailures counts
	// attempts that never produced a process.
	Spawns        int64
	SpawnFailures int64
	// Deaths counts workers that exited outside the pool's own retire
	// path (crash, OOM, kill); OOMs is the subset that died with
	// OOMExitCode; Kills is the subset the supervisor SIGKILLed.
	Deaths int64
	OOMs   int64
	Kills  int64
	// Recycles counts graceful retirements: the request-count and
	// memory high-water policies, plus pool shutdown.
	Recycles int64
	// Requests counts jobs submitted; Failures the subset that failed
	// at the worker stage (not pipeline errors the worker reported).
	Requests int64
	Failures int64
	// Active and Idle are current worker counts.
	Active int64
	Idle   int64
}

// Pool is a supervised set of sandbox workers.
type Pool struct {
	cfg Config
	sem chan struct{}

	mu     sync.Mutex
	idle   []*worker
	closed bool

	spawns, spawnFailures       atomic.Int64
	deaths, ooms, kills         atomic.Int64
	recycles                    atomic.Int64
	requests, failures, activeN atomic.Int64
}

// worker is one live subprocess.
type worker struct {
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	br       *bufio.Reader
	reqs     int
	waitOnce sync.Once
	waitErr  error
}

// waitExit reaps the process exactly once, whatever path got here.
func (w *worker) waitExit() {
	w.waitOnce.Do(func() { w.waitErr = w.cmd.Wait() })
}

// exitedOOM reports whether the reaped worker died by its own RSS
// watchdog.
func (w *worker) exitedOOM() bool {
	return w.cmd.ProcessState != nil && w.cmd.ProcessState.ExitCode() == OOMExitCode
}

// kill SIGKILLs the process; harmless if it is already gone.
func (w *worker) kill() { w.cmd.Process.Kill() }

// New builds a pool from cfg. No workers start until the first Do.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxRequests == 0 {
		cfg.MaxRequests = 128
	}
	return &Pool{cfg: cfg, sem: make(chan struct{}, cfg.Workers)}
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	idle := int64(len(p.idle))
	p.mu.Unlock()
	return Stats{
		Spawns:        p.spawns.Load(),
		SpawnFailures: p.spawnFailures.Load(),
		Deaths:        p.deaths.Load(),
		OOMs:          p.ooms.Load(),
		Kills:         p.kills.Load(),
		Recycles:      p.recycles.Load(),
		Requests:      p.requests.Load(),
		Failures:      p.failures.Load(),
		Active:        p.activeN.Load(),
		Idle:          idle,
	}
}

// workerErr wraps a worker-side failure as a worker-stage StageError,
// the shape every layer above already understands.
func (p *Pool) workerErr(job Job, err error) error {
	return core.WrapStage(job.Benchmark, core.StageWorker, err)
}

// Do round-trips one job through a worker: wait for a slot, send the
// job's frame to an idle or fresh worker, await the response under the
// job's deadline. Any worker death comes back as a worker-stage
// StageError; a non-nil JobResult may still describe a pipeline failure
// the worker reported in-band (status ≥ 400).
func (p *Pool) Do(ctx context.Context, job Job) (*JobResult, error) {
	target := job.SeamTarget()
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, p.workerErr(job, fmt.Errorf("cancelled waiting for a worker: %w", ctx.Err()))
	}
	defer func() { <-p.sem }()
	p.requests.Add(1)

	w, err := p.dispatch(ctx, job, target)
	if err != nil {
		p.failures.Add(1)
		return nil, err
	}
	p.activeN.Add(1)
	res, rss, err := p.await(ctx, w, job, target)
	p.activeN.Add(-1)
	if err != nil {
		p.failures.Add(1)
		return nil, err
	}
	p.checkin(w, rss)
	return res, nil
}

// dispatch sends the job's frame to the most recently idled worker, or
// to a fresh one when none is idle. An idle worker can die between
// requests (an outside kill, its own OOM watchdog); the send then fails,
// and since the frame never reached the corpse the pool destroys it and
// sends the job to one fresh worker instead, so no job runs twice.
func (p *Pool) dispatch(ctx context.Context, job Job, target string) (*worker, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, p.workerErr(job, errors.New("worker pool is closed"))
	}
	var w *worker
	if n := len(p.idle); n > 0 {
		w = p.idle[n-1]
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if w != nil {
		if err := w.send(ctx, job, target); err == nil {
			return w, nil
		}
		p.destroy(w)
	}
	w, err := p.spawn(job, target)
	if err != nil {
		return nil, err
	}
	if err := w.send(ctx, job, target); err != nil {
		p.destroy(w)
		return nil, p.workerErr(job, fmt.Errorf("worker send: %w", err))
	}
	return w, nil
}

// spawn starts one worker subprocess.
func (p *Pool) spawn(job Job, target string) (*worker, error) {
	fail := func(err error) (*worker, error) {
		p.spawnFailures.Add(1)
		return nil, p.workerErr(job, fmt.Errorf("worker spawn: %w", err))
	}
	if err := faultinject.Error(faultinject.WorkerSpawn, target); err != nil {
		return fail(err)
	}
	argv := p.cfg.Command
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return fail(err)
		}
		argv = []string{exe, "worker", "-mem", strconv.FormatInt(p.cfg.MemLimit, 10)}
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), p.cfg.Env...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fail(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fail(err)
	}
	if err := cmd.Start(); err != nil {
		return fail(err)
	}
	p.spawns.Add(1)
	return &worker{cmd: cmd, stdin: stdin, br: bufio.NewReaderSize(stdout, 64<<10)}, nil
}

// destroy kills (if still alive) and reaps one worker, classifying its
// exit; it reports whether the death was the worker's own OOM watchdog.
func (p *Pool) destroy(w *worker) (oom bool) {
	w.stdin.Close()
	w.kill()
	w.waitExit()
	p.deaths.Add(1)
	if w.exitedOOM() {
		p.ooms.Add(1)
		return true
	}
	return false
}

// send writes the worker's next job frame, carrying the job's remaining
// deadline. The frame id is the worker's request count.
func (w *worker) send(ctx context.Context, job Job, target string) error {
	w.reqs++
	req := request{ID: uint64(w.reqs), Job: &job}
	if dl, ok := ctx.Deadline(); ok {
		ms := int64(time.Until(dl) / time.Millisecond)
		if ms < 1 {
			ms = 1
		}
		req.DeadlineMS = ms
	}
	if err := faultinject.Error(faultinject.WorkerSend, target); err != nil {
		return err
	}
	return writeFrame(w.stdin, &req)
}

// await reads the response to the worker's last frame. On success the
// worker survives for check-in; on any failure it is destroyed and the
// error explains the death.
func (p *Pool) await(ctx context.Context, w *worker, job Job, target string) (*JobResult, int64, error) {
	if faultinject.Fires(faultinject.WorkerKill, target) {
		// The chaos seam: SIGKILL mid-request, after the frame landed.
		// The read below observes the same EOF a real crash produces.
		p.kills.Add(1)
		w.kill()
	}

	type readResult struct {
		resp response
		err  error
	}
	ch := make(chan readResult, 1)
	go func() {
		var resp response
		err := readFrame(w.br, &resp)
		ch <- readResult{resp, err}
	}()

	var rr readResult
	select {
	case rr = <-ch:
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The worker saw the same deadline and aborts its own
			// pipeline, so the in-band error matches the in-process
			// path; the SIGKILL is only the backstop for a worker too
			// wedged to answer.
			t := time.NewTimer(killGrace)
			select {
			case rr = <-ch:
				t.Stop()
			case <-t.C:
				p.kills.Add(1)
				w.kill()
				<-ch // the killed pipe unblocks the reader
				p.destroy(w)
				return nil, 0, p.workerErr(job,
					fmt.Errorf("worker killed: unresponsive %v past its deadline", killGrace))
			}
		} else {
			// Pure cancellation (client gone, drain abort): no grace,
			// and the cause is wrapped so callers can map it to their
			// cancellation handling.
			p.kills.Add(1)
			w.kill()
			<-ch
			p.destroy(w)
			return nil, 0, p.workerErr(job, fmt.Errorf("worker killed: %w", ctx.Err()))
		}
	}

	if rr.err == nil && faultinject.Fires(faultinject.WorkerRecv, target) {
		rr.err = &faultinject.Fault{Point: faultinject.WorkerRecv, Target: target}
	}
	if rr.err != nil {
		cause := fmt.Errorf("worker died mid-request: %w", rr.err)
		if p.destroy(w) {
			cause = fmt.Errorf("worker exceeded its %d-byte memory ceiling: %w", p.cfg.MemLimit, rr.err)
		}
		return nil, 0, p.workerErr(job, cause)
	}
	if id := uint64(w.reqs); rr.resp.ID != id || rr.resp.Result == nil {
		p.destroy(w)
		return nil, 0, p.workerErr(job,
			fmt.Errorf("torn worker response: frame id %d, want %d", rr.resp.ID, id))
	}
	return rr.resp.Result, rr.resp.RSS, nil
}

// checkin returns a healthy worker to the idle list, or retires it when
// a recycle policy says it has served enough: MaxRequests, or an RSS at
// 80% of the memory ceiling, a hedge against slow leaks that never trip
// the watchdog.
func (p *Pool) checkin(w *worker, rss int64) {
	mem := p.cfg.MemLimit
	if (p.cfg.MaxRequests > 0 && w.reqs >= p.cfg.MaxRequests) ||
		(mem > 0 && rss >= mem-mem/5) {
		p.recycles.Add(1)
		go retireWait(w)
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.recycles.Add(1)
		go retireWait(w)
		return
	}
	p.idle = append(p.idle, w)
	p.mu.Unlock()
}

// retireWait retires one worker gracefully: closing stdin makes its
// frame loop return, with a SIGKILL fallback for a worker too wedged to
// exit.
func retireWait(w *worker) {
	w.stdin.Close()
	done := make(chan struct{})
	go func() {
		w.waitExit()
		close(done)
	}()
	t := time.NewTimer(killGrace)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
		w.kill()
		<-done
	}
}

// Close retires every idle worker. Safe to call once in-flight requests
// have drained (the daemon drains before closing); a straggling check-in
// after Close retires its worker too.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, w := range idle {
		p.recycles.Add(1)
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			retireWait(w)
		}(w)
	}
	wg.Wait()
}
