package workerpool

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"delinq/internal/bench"
	"delinq/internal/core"
	"delinq/internal/faultinject"
)

// TestMain doubles as the worker entry point: the pool tests re-exec
// this test binary with the env marker set, standing in for the real
// CLI's hidden `delinq worker` subcommand.
func TestMain(m *testing.M) {
	if os.Getenv("DELINQ_TEST_WORKER") == "1" {
		mem, _ := strconv.ParseInt(os.Getenv("DELINQ_TEST_WORKER_MEM"), 10, 64)
		if err := ServeWorker(os.Stdin, os.Stdout, mem); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testPool builds a pool whose workers are re-execs of this test
// binary (see TestMain).
func testPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Command = []string{exe}
	cfg.Env = append(cfg.Env,
		"DELINQ_TEST_WORKER=1",
		"DELINQ_TEST_WORKER_MEM="+strconv.FormatInt(cfg.MemLimit, 10))
	p := New(cfg)
	t.Cleanup(p.Close)
	return p
}

const addSource = `
int main() {
	int a[64];
	int i;
	int sum;
	sum = 0;
	for (i = 0; i < 64; i = i + 1) { a[i] = i; }
	for (i = 0; i < 64; i = i + 1) { sum = sum + a[i]; }
	return sum;
}`

// balloonSource touches ~96 MiB of lazy VM pages — well under the VM's
// own 256 MiB budget, but past the small worker ceilings the OOM tests
// configure.
const balloonSource = `
int main() {
	int i;
	for (i = 0; i < 24576; i = i + 1) {
		char *p = malloc(4096);
		p[0] = 1;
	}
	return 0;
}`

// spinSource runs ~8 billion instructions: far past any test deadline,
// still under the VM's 2e9-instruction... no — past it too, but the
// context poll fires long before either budget.
const spinSource = `
int main() {
	int i;
	int x;
	x = 0;
	for (i = 0; i < 2000000000; i = i + 1) { x = x + 1; }
	return x;
}`

// --- protocol ----------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{ID: 42, Job: &Job{Kind: JobRun, Source: "int main(){return 0;}"}, DeadlineMS: 250}
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out request
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 42 || out.Job == nil || out.Job.Kind != JobRun || out.DeadlineMS != 250 {
		t.Fatalf("round trip mangled the frame: %+v", out)
	}
	// The buffer is drained: the next read is a clean EOF.
	if err := readFrame(&buf, &out); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsTornAndGarbage(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, &request{ID: 1, Job: &Job{Kind: JobRun, Source: addSource}})
	full := buf.Bytes()

	var out request
	// Truncated payload.
	err := readFrame(bytes.NewReader(full[:len(full)-2]), &out)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("torn payload: err = %v, want explicit error", err)
	}
	// Truncated header.
	err = readFrame(bytes.NewReader(full[:2]), &out)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("torn header: err = %v, want explicit error", err)
	}
	// A length prefix past the cap.
	bad := []byte{0xff, 0xff, 0xff, 0xff}
	if err := readFrame(bytes.NewReader(bad), &out); err == nil {
		t.Fatal("oversized length accepted")
	}
	// A zero length.
	if err := readFrame(bytes.NewReader(make([]byte, 4)), &out); err == nil {
		t.Fatal("zero length accepted")
	}
}

// --- Execute (the shared pipeline) ----------------------------------------------------------

func TestExecuteAnalyzeSource(t *testing.T) {
	res := Execute(context.Background(), Job{Kind: JobAnalyze, Source: addSource})
	if res.Status != http.StatusOK {
		t.Fatalf("status = %d (err %q)", res.Status, res.Err)
	}
	if res.ContentType != "application/json" || !bytes.HasSuffix(res.Body, []byte("\n")) {
		t.Errorf("body shape: ct=%q tail=%q", res.ContentType, res.Body[len(res.Body)-1:])
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(res.Body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Heuristic.Loads == 0 {
		t.Error("analysis found no loads at all")
	}
}

func TestExecuteCompileErrorIs400(t *testing.T) {
	res := Execute(context.Background(), Job{Kind: JobRun, Source: "int main( {"})
	if res.Status != http.StatusBadRequest || !strings.Contains(res.Err, "compile:") {
		t.Fatalf("res = %+v, want 400 compile error", res)
	}
}

func TestExecuteUnknownKind(t *testing.T) {
	if res := Execute(context.Background(), Job{Kind: "transmogrify"}); res.Status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", res.Status)
	}
}

// TestExecuteInterHonoursContext: a benchmark inter job runs its
// interprocedural analysis under the caller's context, so a cancelled
// request fails at the pattern stage even when the build and run are
// memoised, and the failure is not memoised for the next caller.
func TestExecuteInterHonoursContext(t *testing.T) {
	bench.ResetCache()
	t.Cleanup(bench.ResetCache)
	plain := Job{Kind: JobAnalyze, Benchmark: "181.mcf"}
	if res := Execute(context.Background(), plain); res.Status != http.StatusOK {
		t.Fatalf("warm-up analyze = %d (err %q)", res.Status, res.Err)
	}

	inter := Job{Kind: JobAnalyze, Benchmark: "181.mcf", Inter: true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Execute(ctx, inter)
	if res.Status != http.StatusInternalServerError || res.Stage != string(core.StagePattern) || res.Benchmark != "181.mcf" {
		t.Fatalf("cancelled inter analyze = %d stage %q benchmark %q (err %q), want 500 pattern 181.mcf",
			res.Status, res.Stage, res.Benchmark, res.Err)
	}
	if !strings.Contains(res.Err, context.Canceled.Error()) {
		t.Errorf("err = %q, want the context cancellation", res.Err)
	}

	if res := Execute(context.Background(), inter); res.Status != http.StatusOK {
		t.Fatalf("live inter analyze after the cancelled one = %d (err %q)", res.Status, res.Err)
	}
}

func TestValidateTarget(t *testing.T) {
	if st, msg := ValidateTarget(addSource, "", "", nil); st != 0 {
		t.Errorf("source: status=%d %q", st, msg)
	}
	if st, msg := ValidateTarget("", "181.mcf", "", nil); st != 0 {
		t.Errorf("benchmark: status=%d %q", st, msg)
	}
	for _, c := range []struct {
		src, bm, isa string
		args         []int32
	}{
		{"", "", "", nil},               // neither
		{addSource, "181.mcf", "", nil}, // both
		{"", "nope.bench", "", nil},     // unknown benchmark
		{"", "181.mcf", "", []int32{1}}, // args with benchmark
		{addSource, "", "quantum", nil}, // unknown ISA
	} {
		if st, msg := ValidateTarget(c.src, c.bm, c.isa, c.args); st != http.StatusBadRequest || msg == "" {
			t.Errorf("ValidateTarget(%q,%q,%q,%v) = %d %q, want 400", c.src, c.bm, c.isa, c.args, st, msg)
		}
	}
}

// --- ServeWorker (in-process, over pipes) ----------------------------------------------------------

// workerPipes runs ServeWorker over in-memory pipes, returning the
// supervisor-side endpoints.
func workerPipes(t *testing.T) (io.WriteCloser, io.Reader, chan error) {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- ServeWorker(inR, outW, 0)
		outW.Close()
	}()
	t.Cleanup(func() { inW.Close() })
	return inW, outR, done
}

func TestServeWorkerJob(t *testing.T) {
	in, out, done := workerPipes(t)

	job := Job{Kind: JobRun, Source: addSource}
	if err := writeFrame(in, &request{ID: 1, Job: &job}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := readFrame(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 || resp.Result == nil || resp.Result.Status != http.StatusOK {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.RSS <= 0 {
		t.Errorf("RSS not reported: %d", resp.RSS)
	}
	var rr RunResponse
	if err := json.Unmarshal(resp.Result.Body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Exit != 2016 { // sum 0..63
		t.Errorf("exit = %d, want 2016", rr.Exit)
	}

	// Byte-identity between the worker-run pipeline and a direct call.
	direct := Execute(context.Background(), job)
	if !bytes.Equal(direct.Body, resp.Result.Body) {
		t.Error("worker-side and in-process bodies differ")
	}

	// A malformed frame (no job) answers 400 in-band.
	if err := writeFrame(in, &request{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := readFrame(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Status != http.StatusBadRequest {
		t.Fatalf("malformed frame: resp = %+v", resp)
	}

	// Closing stdin retires the loop cleanly.
	in.Close()
	if err := <-done; err != nil {
		t.Fatalf("ServeWorker = %v, want nil on clean EOF", err)
	}
}

func TestServeWorkerDeadlineAbortsInBand(t *testing.T) {
	in, out, _ := workerPipes(t)
	job := Job{Kind: JobRun, Source: spinSource}
	if err := writeFrame(in, &request{ID: 1, Job: &job, DeadlineMS: 100}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := readFrame(out, &resp); err != nil {
		t.Fatal(err)
	}
	res := resp.Result
	if res == nil || res.Status != http.StatusInternalServerError {
		t.Fatalf("resp = %+v, want in-band 500", resp)
	}
	if res.Stage != string(core.StageSimulate) || !strings.Contains(res.Err, "cancelled") {
		t.Errorf("deadline error = %+v, want simulate-stage cancellation", res)
	}
}

// --- the pool ----------------------------------------------------------

func runJob(t *testing.T, p *Pool, job Job) *JobResult {
	t.Helper()
	res, err := p.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPoolExecutesAndReusesWorkers(t *testing.T) {
	p := testPool(t, Config{Workers: 2})
	job := Job{Kind: JobRun, Source: addSource}
	first := runJob(t, p, job)
	if first.Status != http.StatusOK {
		t.Fatalf("first = %+v", first)
	}
	second := runJob(t, p, job)
	if !bytes.Equal(first.Body, second.Body) {
		t.Error("same job, different bytes")
	}
	direct := Execute(context.Background(), job)
	if !bytes.Equal(direct.Body, first.Body) {
		t.Error("pooled and in-process bytes differ")
	}
	st := p.Stats()
	if st.Spawns != 1 || st.Requests != 2 || st.Deaths != 0 {
		t.Errorf("stats = %+v, want one reused worker", st)
	}
	if st.Idle != 1 || st.Active != 0 {
		t.Errorf("stats = %+v, want the worker idle", st)
	}
}

func TestPoolRecyclesAfterMaxRequests(t *testing.T) {
	p := testPool(t, Config{Workers: 1, MaxRequests: 2})
	job := Job{Kind: JobRun, Source: addSource}
	for i := 0; i < 3; i++ {
		runJob(t, p, job)
	}
	st := p.Stats()
	if st.Recycles != 1 || st.Spawns != 2 {
		t.Errorf("stats = %+v, want 1 recycle / 2 spawns after 3 requests at MaxRequests=2", st)
	}
	if st.Deaths != 0 {
		t.Errorf("a recycle counted as a death: %+v", st)
	}
}

func TestPoolSeamsSurfaceWorkerStageErrors(t *testing.T) {
	addJob := Job{Kind: JobRun, Source: addSource}
	cases := []struct {
		name  string
		point faultinject.Point
		fires int
		// job is the faulted request. The kill case sends spinSource,
		// which cannot answer before the SIGKILL lands.
		job Job
		// want is the error substring; "" means the pool absorbs the
		// fault and the job succeeds.
		want                            string
		deaths, spawns, failures, kills int64
	}{
		// A failed send on a reused worker never reached it: one fresh
		// worker takes the job. A second failure in a row is an error.
		{"worker:send", faultinject.WorkerSend, 1, addJob, "", 1, 2, 0, 0},
		{"worker:send_twice", faultinject.WorkerSend, 2, addJob, "worker send", 2, 2, 1, 0},
		{"worker:recv", faultinject.WorkerRecv, 1, addJob, "worker died mid-request", 1, 1, 1, 0},
		{"worker:kill", faultinject.WorkerKill, 1, Job{Kind: JobRun, Source: spinSource},
			"worker died mid-request", 1, 1, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := testPool(t, Config{Workers: 1})
			runJob(t, p, addJob) // a healthy request first: the fault hits a reused worker

			plan := faultinject.NewPlan(1)
			plan.ArmN(c.point, "adhoc", c.fires)
			faultinject.Install(plan)
			defer faultinject.Clear()

			// The deadline only guards against a hang: the seams fire
			// long before it.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := p.Do(ctx, c.job)
			switch {
			case c.want == "":
				if err != nil || res.Status != http.StatusOK {
					t.Fatalf("Do = %+v, %v; want the fault absorbed", res, err)
				}
			case err == nil:
				t.Fatal("armed seam produced no error")
			case !errors.Is(err, &core.StageError{Stage: core.StageWorker}):
				t.Fatalf("err = %v, want worker-stage StageError", err)
			case !strings.Contains(err.Error(), c.want):
				t.Errorf("err = %q, want substring %q", err, c.want)
			}
			st := p.Stats()
			if st.Deaths != c.deaths || st.Spawns != c.spawns || st.Failures != c.failures ||
				st.Kills != c.kills || st.Requests != 2 {
				t.Errorf("stats = %+v, want deaths %d, spawns %d, failures %d, kills %d, requests 2",
					st, c.deaths, c.spawns, c.failures, c.kills)
			}

			// The pool healed: the next request succeeds.
			if res := runJob(t, p, addJob); res.Status != http.StatusOK {
				t.Fatalf("post-fault request = %+v", res)
			}
		})
	}
}

func TestPoolSpawnFailure(t *testing.T) {
	p := testPool(t, Config{Workers: 1})
	plan := faultinject.NewPlan(1)
	plan.ArmN(faultinject.WorkerSpawn, "*", 4)
	faultinject.Install(plan)
	defer faultinject.Clear()

	job := Job{Kind: JobRun, Source: addSource}
	for i := 0; i < 4; i++ {
		_, err := p.Do(context.Background(), job)
		if !errors.Is(err, &core.StageError{Stage: core.StageWorker}) {
			t.Fatalf("spawn %d: err = %v, want worker-stage StageError", i, err)
		}
	}
	// Seam exhausted: the next spawn works, at once.
	if res := runJob(t, p, job); res.Status != http.StatusOK {
		t.Fatalf("post-fault request = %+v", res)
	}
	st := p.Stats()
	if st.SpawnFailures != 4 || st.Spawns != 1 || st.Failures != 4 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPoolDeathsDoNotDelayOthers: worker deaths leave no state behind
// that slows the next spawn — one job that kills its worker kills every
// replacement the same way, so waiting would only tax other clients.
func TestPoolDeathsDoNotDelayOthers(t *testing.T) {
	p := testPool(t, Config{Workers: 1})
	plan := faultinject.NewPlan(1)
	plan.Arm(faultinject.WorkerKill, "022.li")
	faultinject.Install(plan)
	defer faultinject.Clear()

	for i := 0; i < 8; i++ {
		if _, err := p.Do(context.Background(), Job{Kind: JobAnalyze, Benchmark: "022.li"}); err == nil {
			t.Fatalf("fill %d: armed kill produced no error", i)
		}
	}
	start := time.Now()
	if res := runJob(t, p, Job{Kind: JobRun, Source: addSource}); res.Status != http.StatusOK {
		t.Fatalf("source job after the deaths = %+v", res)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("source job after 8 deaths took %v, want under 1s", elapsed)
	}
	if st := p.Stats(); st.Deaths != 8 || st.Kills != 8 || st.Spawns != 9 {
		t.Errorf("stats = %+v, want 8 killed workers and 9 spawns", st)
	}
}

func TestPoolOOMKillsWorkerNotPool(t *testing.T) {
	p := testPool(t, Config{Workers: 1, MemLimit: 64 << 20})
	_, err := p.Do(context.Background(), Job{Kind: JobRun, Source: balloonSource})
	if err == nil {
		t.Fatal("balloon request succeeded under a 64 MiB ceiling")
	}
	if !errors.Is(err, &core.StageError{Stage: core.StageWorker}) {
		t.Fatalf("err = %v, want worker-stage StageError", err)
	}
	if !strings.Contains(err.Error(), "memory ceiling") {
		t.Errorf("err = %q, want the OOM diagnosis", err)
	}
	st := p.Stats()
	if st.OOMs != 1 || st.Deaths != 1 {
		t.Errorf("stats = %+v, want the death classified as an OOM", st)
	}
	// The pool is fine: a small job on a fresh worker succeeds.
	if res := runJob(t, p, Job{Kind: JobRun, Source: addSource}); res.Status != http.StatusOK {
		t.Fatalf("post-OOM request = %+v", res)
	}
}

func TestPoolDeadlineErrorMatchesInProcess(t *testing.T) {
	p := testPool(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	res, err := p.Do(ctx, Job{Kind: JobRun, Source: spinSource})
	if err != nil {
		t.Fatalf("deadline was answered by a kill, not in-band: %v", err)
	}
	if res.Status != http.StatusInternalServerError || res.Stage != string(core.StageSimulate) {
		t.Fatalf("res = %+v, want the in-band simulate-stage deadline error", res)
	}
	st := p.Stats()
	if st.Kills != 0 || st.Deaths != 0 {
		t.Errorf("stats = %+v, want no kill for an in-band deadline", st)
	}
}

func TestPoolKillsWedgedWorkerPastGrace(t *testing.T) {
	// /bin/sleep accepts the request frame on stdin and never answers:
	// the deadline passes, the grace passes, the backstop SIGKILLs.
	p := New(Config{Workers: 1, Command: []string{"/bin/sleep", "3600"}})
	t.Cleanup(p.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Do(ctx, Job{Kind: JobRun, Source: addSource})
	if err == nil {
		t.Fatal("wedged worker produced a result")
	}
	if !strings.Contains(err.Error(), "unresponsive") {
		t.Errorf("err = %q, want the backstop diagnosis", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("backstop took %v", elapsed)
	}
	st := p.Stats()
	if st.Kills != 1 || st.Deaths != 1 {
		t.Errorf("stats = %+v, want exactly one kill", st)
	}
}

func TestPoolCancellationKillsPromptly(t *testing.T) {
	p := testPool(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := p.Do(ctx, Job{Kind: JobRun, Source: spinSource})
	if err == nil {
		t.Fatal("cancelled request produced a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want the cancellation cause wrapped", err)
	}
	if st := p.Stats(); st.Kills != 1 {
		t.Errorf("stats = %+v, want the straggler killed", st)
	}
}

// TestPoolReplacesDeadIdleWorker: a worker that dies while idle is found
// by the next send to it, and that job runs on a fresh worker instead.
func TestPoolReplacesDeadIdleWorker(t *testing.T) {
	p := testPool(t, Config{Workers: 1})
	job := Job{Kind: JobRun, Source: addSource}
	runJob(t, p, job)
	// Murder the idle worker behind the pool's back and reap it.
	p.mu.Lock()
	if len(p.idle) != 1 {
		p.mu.Unlock()
		t.Fatalf("idle = %d, want 1", len(p.idle))
	}
	w := p.idle[0]
	p.mu.Unlock()
	w.kill()
	w.waitExit()

	if res := runJob(t, p, job); res.Status != http.StatusOK {
		t.Fatalf("request after the idle death = %+v", res)
	}
	st := p.Stats()
	if st.Deaths != 1 || st.Spawns != 2 || st.Failures != 0 || st.Requests != 2 || st.Idle != 1 {
		t.Errorf("stats = %+v, want the corpse replaced by one fresh worker", st)
	}
}

func TestPoolCloseRetiresIdle(t *testing.T) {
	p := testPool(t, Config{Workers: 2})
	runJob(t, p, Job{Kind: JobRun, Source: addSource})
	p.Close()
	st := p.Stats()
	if st.Idle != 0 || st.Recycles != 1 {
		t.Errorf("stats after close = %+v", st)
	}
	if _, err := p.Do(context.Background(), Job{Kind: JobRun, Source: addSource}); err == nil {
		t.Error("closed pool accepted a job")
	}
	p.Close() // idempotent
}

// TestPoolConservation: after a mixed workload quiesces, every spawned
// worker is accounted for: dead, recycled, or still pooled.
func TestPoolConservation(t *testing.T) {
	p := testPool(t, Config{Workers: 2, MaxRequests: 3})
	job := Job{Kind: JobRun, Source: addSource}
	plan := faultinject.NewPlan(1)
	plan.ArmN(faultinject.WorkerKill, "adhoc", 2)
	faultinject.Install(plan)
	defer faultinject.Clear()
	for i := 0; i < 10; i++ {
		p.Do(context.Background(), job)
	}
	faultinject.Clear()
	st := p.Stats()
	if st.Spawns != st.Deaths+st.Recycles+st.Active+st.Idle {
		t.Errorf("conservation violated: %+v", st)
	}
	if st.Deaths != 2 || st.Kills != 2 {
		t.Errorf("stats = %+v, want exactly the two injected kills", st)
	}
}
