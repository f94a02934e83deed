// The worker side of the sandbox: a frame loop over stdin/stdout,
// running under a Go soft memory limit plus an RSS self-watchdog that
// exits with a distinct code when the process outgrows its ceiling —
// so a hard OOM looks like a clean, classifiable death to the
// supervisor instead of a kernel OOM-kill lottery.
package workerpool

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"delinq/internal/core"
)

// OOMExitCode is the exit status a worker uses when its RSS watchdog
// trips: the supervisor classifies this death as an OOM rather than a
// crash.
const OOMExitCode = 7

// watchdogInterval is how often the RSS self-watchdog samples
// /proc/self/statm.
const watchdogInterval = 50 * time.Millisecond

// ServeWorker runs the worker protocol: read a frame, execute its job,
// answer, repeat until stdin closes (the supervisor's graceful retire).
// memLimit > 0 installs a Go soft memory limit at the ceiling and an
// RSS watchdog that exits with OOMExitCode when the process outgrows
// it. The returned error is a protocol failure (torn frame, broken
// pipe); a clean EOF returns nil.
func ServeWorker(r io.Reader, w io.Writer, memLimit int64) error {
	if memLimit > 0 {
		debug.SetMemoryLimit(memLimit)
		go rssWatchdog(memLimit)
	}
	br := bufio.NewReaderSize(r, 64<<10)
	bw := bufio.NewWriterSize(w, 64<<10)
	for {
		var req request
		if err := readFrame(br, &req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		resp := response{ID: req.ID}
		if req.Job != nil {
			resp.Result = executeRecover(&req)
		} else {
			resp.Result = errResult(http.StatusBadRequest, "malformed worker frame: no job")
		}
		resp.RSS = CurrentRSS()
		if err := writeFrame(bw, &resp); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// executeRecover runs one job under the frame's deadline, converting a
// pipeline panic into a worker-stage failure so one poisonous request
// costs an answer, not the process. (Deaths no recover() can catch —
// hard OOMs, runtime aborts — are the supervisor's problem; that is
// the point of the sandbox.)
func executeRecover(req *request) (res *JobResult) {
	defer func() {
		if rec := recover(); rec != nil {
			res = PipelineResult(core.WrapStage(req.Job.Benchmark, core.StageWorker,
				fmt.Errorf("recovered worker panic: %v", rec)))
		}
	}()
	ctx := context.Background()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	return Execute(ctx, *req.Job)
}

// CurrentRSS returns this process's resident set size in bytes, read
// from /proc/self/statm; on systems without procfs it falls back to the
// Go runtime's own footprint estimate.
func CurrentRSS() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		f := strings.Fields(string(b))
		if len(f) >= 2 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys - ms.HeapReleased)
}

// rssWatchdog polls the process's RSS and exits with OOMExitCode when
// it exceeds limit. The Go memory limit installed alongside makes the
// runtime fight to stay under the ceiling first; the watchdog is the
// hard backstop for memory GOGC cannot reclaim (a VM image, one giant
// allocation) — it dies cleanly at the threshold instead of thrashing
// or taking a SIGKILL from the kernel.
func rssWatchdog(limit int64) {
	t := time.NewTicker(watchdogInterval)
	defer t.Stop()
	for range t.C {
		if rss := CurrentRSS(); rss > limit {
			fmt.Fprintf(os.Stderr, "delinq worker: rss %d bytes exceeds the %d-byte ceiling, exiting\n", rss, limit)
			os.Exit(OOMExitCode)
		}
	}
}
