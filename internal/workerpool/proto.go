// Package workerpool executes the analysis daemon's fill-path pipeline
// (analyze/run, ad-hoc source and benchmarks) inside a supervised pool
// of sandboxed subprocess workers, so one poisonous request — a hard
// OOM, a VM stack blowout, a crash no recover() can catch — kills one
// worker process, never the fleet-facing daemon.
//
// The pieces:
//
//   - Execute runs one Job's pipeline in the calling process; it is the
//     single definition of the fill pipeline, called directly by the
//     daemon in non-isolated mode and by workers in isolated mode, so
//     responses are byte-identical across modes by construction.
//   - ServeWorker is the worker side of `delinq worker`: a frame loop
//     over stdin/stdout under a GOMEMLIMIT and an RSS self-watchdog.
//   - Pool is the supervisor: it spawns workers on demand, round-trips
//     jobs over length-prefixed JSON frames, enforces wall-clock kill
//     deadlines, health-pings idle workers, recycles them after N
//     requests or a memory high-water mark, and respawns crash-looping
//     workers under capped exponential backoff. Every worker death
//     surfaces as a core.StageError at the worker stage, which the
//     daemon answers as an ordinary 500.
package workerpool

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Job kinds.
const (
	JobAnalyze = "analyze"
	JobRun     = "run"
)

// MaxFrame caps one frame's payload so a corrupt length prefix cannot
// make either side allocate unboundedly.
const MaxFrame = 32 << 20

// Job is one unit of fill-path pipeline work: the canonical fields of
// an analyze or run request (Inter is analyze-only).
type Job struct {
	Kind      string  `json:"kind"`
	Source    string  `json:"source,omitempty"`
	Benchmark string  `json:"benchmark,omitempty"`
	Optimize  bool    `json:"optimize,omitempty"`
	Inter     bool    `json:"inter,omitempty"`
	Input2    bool    `json:"input2,omitempty"`
	Args      []int32 `json:"args,omitempty"`
	ISA       string  `json:"isa,omitempty"`
}

// SeamTarget is the faultinject target identifying this job at the
// worker:* seams: the benchmark name, or "adhoc" for source jobs.
func (j Job) SeamTarget() string {
	if j.Benchmark != "" {
		return j.Benchmark
	}
	return "adhoc"
}

// JobResult is one executed job's outcome, shaped like the HTTP answer
// the daemon will give: a 200 carries the rendered response body, any
// other status the error envelope fields.
type JobResult struct {
	Status      int    `json:"status"`
	ContentType string `json:"contentType,omitempty"`
	Body        []byte `json:"body,omitempty"`
	Err         string `json:"err,omitempty"`
	Stage       string `json:"stage,omitempty"`
	Benchmark   string `json:"benchmark,omitempty"`
}

// request is one supervisor→worker frame: a job or a health ping.
// DeadlineMS, when positive, is the job's remaining wall-clock budget;
// the worker aborts its own pipeline at the deadline so the error it
// reports matches the in-process path byte for byte, with the
// supervisor's SIGKILL only as a backstop for a hung worker.
type request struct {
	ID         uint64 `json:"id"`
	Ping       bool   `json:"ping,omitempty"`
	Job        *Job   `json:"job,omitempty"`
	DeadlineMS int64  `json:"deadlineMs,omitempty"`
}

// response is one worker→supervisor frame. RSS is the worker's
// post-request resident set size, feeding the high-water recycle
// policy.
type response struct {
	ID     uint64     `json:"id"`
	Pong   bool       `json:"pong,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	RSS    int64      `json:"rss,omitempty"`
}

// writeFrame emits one length-prefixed JSON frame.
func writeFrame(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("workerpool: frame encode: %w", err)
	}
	if len(b) > MaxFrame {
		return fmt.Errorf("workerpool: frame of %d bytes exceeds the %d-byte cap", len(b), MaxFrame)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// readFrame reads one frame into v. A clean io.EOF at a frame boundary
// passes through unchanged (the peer retired); anything torn —
// a partial header, a truncated payload, garbage lengths — is an
// explicit error.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("workerpool: torn frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return fmt.Errorf("workerpool: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("workerpool: torn frame payload: %w", err)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("workerpool: frame decode: %w", err)
	}
	return nil
}
