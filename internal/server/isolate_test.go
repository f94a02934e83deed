package server

// Process-isolation semantics: with -isolate every cache fill crosses a
// process boundary, so a worker being SIGKILLed, OOMing, or wedging is
// a 500 with worker-stage provenance — never a dead daemon — while
// concurrent healthy requests answer byte-identically to the in-process
// mode. The durable-state contract survives unchanged underneath: warm
// replays are byte-identical and a killed fill is never persisted.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"delinq/internal/faultinject"
	"delinq/internal/workerpool"
)

// TestMain doubles as the sandbox-worker entry point: isolate-mode
// daemons built by these tests re-exec this test binary with the env
// marker set, standing in for the real CLI's hidden `delinq worker`
// subcommand (which test binaries do not have).
func TestMain(m *testing.M) {
	if os.Getenv("DELINQ_TEST_WORKER") == "1" {
		mem, _ := strconv.ParseInt(os.Getenv("DELINQ_TEST_WORKER_MEM"), 10, 64)
		if err := workerpool.ServeWorker(os.Stdin, os.Stdout, mem); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// isolateConfig turns cfg into an isolate-mode config whose workers are
// re-execs of this test binary. workerMem <= 0 means no memory ceiling.
func isolateConfig(t *testing.T, cfg Config, workerMem int64) Config {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Isolate = true
	cfg.WorkerCommand = []string{exe}
	if workerMem > 0 {
		cfg.WorkerMem = workerMem
	} else {
		cfg.WorkerMem = -1
		workerMem = 0
	}
	cfg.WorkerEnv = []string{
		"DELINQ_TEST_WORKER=1",
		"DELINQ_TEST_WORKER_MEM=" + strconv.FormatInt(workerMem, 10),
	}
	return cfg
}

// workerStat reads one delinq_worker_* gauge from the daemon's registry.
func workerStat(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	v, ok := s.Metrics().Value("delinq_worker_" + name)
	if !ok {
		t.Fatalf("metric delinq_worker_%s not registered", name)
	}
	return v
}

// TestWorkerChaosStorm: a storm of SIGKILLed workers against one
// benchmark while another stays healthy. Every victim request is a 500
// with worker provenance, every healthy answer is byte-identical to the
// in-process mode, the daemon never dies, and the worker telemetry
// accounts for every spawn exactly.
func TestWorkerChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("full storm in short mode")
	}
	t.Cleanup(faultinject.Clear)

	const (
		victim  = "022.li"
		healthy = "181.mcf"
		storms  = 6
	)
	s, ts := newTestDaemon(t, isolateConfig(t, Config{}, 0))

	// The in-process reference daemon: isolate mode must answer with the
	// exact same bytes.
	_, plain := newTestDaemon(t, Config{})
	pcode, _, plainBody := postJSON(t, plain.URL+"/v1/analyze", analyzeBody(srcLoop))
	if pcode != http.StatusOK {
		t.Fatalf("in-process reference = %d: %s", pcode, plainBody)
	}

	bench := func(name string) string { return fmt.Sprintf(`{"benchmark": %q}`, name) }

	// --- before the storm: the healthy golden fill crosses a worker ----
	code, _, golden := postJSON(t, ts.URL+"/v1/analyze", bench(healthy))
	if code != http.StatusOK {
		t.Fatalf("healthy baseline = %d: %s", code, golden)
	}

	// --- the storm: the supervisor SIGKILLs every victim fill ----------
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.WorkerKill, victim)
	faultinject.Install(p)

	for i := 0; i < storms; i++ {
		code, hdr, body := postJSON(t, ts.URL+"/v1/analyze", bench(victim))
		if code != http.StatusInternalServerError {
			t.Fatalf("storm request %d = %d (%s), want 500", i, code, body)
		}
		if !strings.Contains(body, `"stage":"worker"`) || !strings.Contains(body, "worker died mid-request") {
			t.Errorf("storm request %d missing worker provenance: %s", i, body)
		}
		if h := hdr.Get("Delinq-Cache"); h != "miss" {
			t.Errorf("storm request %d Delinq-Cache = %q, want miss (worker deaths are never cached)", i, h)
		}
	}

	// A fresh source fill mid-storm still crosses a (new) worker and
	// answers byte-identically to the in-process daemon.
	code, _, midBody := postJSON(t, ts.URL+"/v1/analyze", analyzeBody(srcLoop))
	if code != http.StatusOK {
		t.Fatalf("fresh fill mid-storm = %d: %s", code, midBody)
	}
	if midBody != plainBody {
		t.Errorf("isolate-mode bytes diverged from in-process mode:\nisolate: %s\nplain:   %s", midBody, plainBody)
	}

	// A concurrent healthy burst mid-storm: byte-identical, every one.
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(bench(healthy)))
			if err != nil {
				errs <- fmt.Sprintf("burst request failed outright: %v", err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- fmt.Sprintf("burst body read failed: %v", err)
				return
			}
			if resp.StatusCode != http.StatusOK || string(b) != golden {
				errs <- fmt.Sprintf("healthy burst = %d, bytes diverged", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("daemon unhealthy mid-storm: a worker death escaped the pool")
	}

	// --- recovery ------------------------------------------------------
	faultinject.Clear()
	code, _, rec := postJSON(t, ts.URL+"/v1/analyze", bench(victim))
	if code != http.StatusOK {
		t.Fatalf("victim after recovery = %d: %s", code, rec)
	}

	// --- shutdown, then the exact accounting ---------------------------
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after the storm: %v", err)
	}

	// Every number is deterministic: 9 fills crossed workers (healthy
	// golden, 6 victims, the mid-storm source, the recovery), the 6
	// victim kills are the only failures and deaths, each death backed
	// off the next spawn, and the conservation invariant balances —
	// every spawned worker is accounted dead, recycled, or idle.
	for name, want := range map[string]int64{
		"requests_total":       9,
		"failures_total":       storms,
		"kills_total":          storms,
		"deaths_total":         storms,
		"spawns_total":         storms + 1, // golden reuses none; victims 2..6 + mid-storm each respawn
		"backoffs_total":       storms,
		"recycles_total":       1, // the close retires the one surviving idle worker
		"ooms_total":           0,
		"spawn_failures_total": 0,
		"ping_failures_total":  0,
		"active":               0,
		"idle":                 0,
	} {
		if got := workerStat(t, s, name); got != want {
			t.Errorf("delinq_worker_%s = %d, want %d", name, got, want)
		}
	}
	spawns := workerStat(t, s, "spawns_total")
	deaths := workerStat(t, s, "deaths_total")
	recycles := workerStat(t, s, "recycles_total")
	active := workerStat(t, s, "active")
	idle := workerStat(t, s, "idle")
	if spawns != deaths+recycles+active+idle {
		t.Errorf("conservation violated: spawns %d != deaths %d + recycles %d + active %d + idle %d",
			spawns, deaths, recycles, active, idle)
	}
}

// TestIsolateWorkerOOM: a request that balloons past the per-worker
// memory ceiling kills only its own worker — a 500 with worker
// provenance naming the ceiling — while a concurrent healthy request
// completes untouched.
func TestIsolateWorkerOOM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns sandbox workers")
	}
	s, ts := newTestDaemon(t, isolateConfig(t, Config{Workers: 2}, 64<<20))

	const balloon = `
int main() {
	int i;
	for (i = 0; i < 24576; i = i + 1) {
		char *p = malloc(4096);
		p[0] = 1;
	}
	return 0;
}`

	type result struct {
		code int
		body string
	}
	oomCh := make(chan result, 1)
	go func() {
		code, _, body := postJSON(t, ts.URL+"/v1/run", `{"source": `+jsonString(balloon)+`}`)
		oomCh <- result{code, body}
	}()

	// Meanwhile a healthy request on the second worker sails through.
	code, _, body := postJSON(t, ts.URL+"/v1/analyze", analyzeBody(srcLoop))
	if code != http.StatusOK {
		t.Errorf("healthy request during OOM = %d: %s", code, body)
	}

	oom := <-oomCh
	if oom.code != http.StatusInternalServerError {
		t.Fatalf("balloon = %d (%s), want 500", oom.code, oom.body)
	}
	if !strings.Contains(oom.body, `"stage":"worker"`) || !strings.Contains(oom.body, "memory ceiling") {
		t.Errorf("OOM response missing worker/ceiling provenance: %s", oom.body)
	}

	if got := workerStat(t, s, "ooms_total"); got != 1 {
		t.Errorf("delinq_worker_ooms_total = %d, want 1", got)
	}
	if got := workerStat(t, s, "deaths_total"); got != 1 {
		t.Errorf("delinq_worker_deaths_total = %d, want 1", got)
	}

	// The daemon itself never felt the balloon.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Error("daemon unhealthy after a worker OOM")
	}
}

// TestIsolateWarmRestartAndPoison: the durability contract holds under
// isolation. Worker-path fills replay byte-identically across a restart
// (and byte-identically to the in-process mode), and a fill whose
// worker was killed is never persisted — the restarted daemon
// recomputes it from scratch.
func TestIsolateWarmRestartAndPoison(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns sandbox workers")
	}
	t.Cleanup(faultinject.Clear)
	dir := t.TempDir()
	mkCfg := func() Config {
		return isolateConfig(t, Config{StateDir: dir}, 0)
	}

	// The in-process reference bytes.
	_, plain := newTestDaemon(t, Config{})
	_, _, plainBody := postJSON(t, plain.URL+"/v1/analyze", analyzeBody(srcLoop))

	// Cold isolate daemon: a worker-path fill, then a poisoned fill whose
	// worker is SIGKILLed mid-request.
	s1, ts1 := newStatefulDaemon(t, mkCfg())
	code, hdr, coldBody := postJSON(t, ts1.URL+"/v1/analyze", analyzeBody(srcLoop))
	if code != http.StatusOK || hdr.Get("Delinq-Cache") != "miss" {
		t.Fatalf("cold isolate fill: code=%d cache=%q", code, hdr.Get("Delinq-Cache"))
	}
	if coldBody != plainBody {
		t.Fatalf("isolate fill diverged from in-process bytes:\nisolate: %s\nplain:   %s", coldBody, plainBody)
	}

	p := faultinject.NewPlan(1)
	p.Arm(faultinject.WorkerKill, "022.li")
	faultinject.Install(p)
	if code, _, body := postJSON(t, ts1.URL+"/v1/analyze", `{"benchmark": "022.li"}`); code != http.StatusInternalServerError {
		t.Fatalf("poisoned fill = %d (%s), want 500", code, body)
	}
	faultinject.Clear()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Warm isolate daemon: the good fill replays byte-identically without
	// touching a worker; the poisoned one was never persisted and is a
	// genuine recompute.
	s2, ts2 := newStatefulDaemon(t, mkCfg())
	code, hdr, warmBody := postJSON(t, ts2.URL+"/v1/analyze", analyzeBody(srcLoop))
	if code != http.StatusOK || hdr.Get("Delinq-Cache") != "warm" {
		t.Fatalf("warm isolate replay: code=%d cache=%q", code, hdr.Get("Delinq-Cache"))
	}
	if warmBody != coldBody {
		t.Fatalf("warm isolate replay diverged:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	if got := workerStat(t, s2, "requests_total"); got != 0 {
		t.Errorf("warm replay crossed a worker: delinq_worker_requests_total = %d, want 0", got)
	}

	code, hdr, body := postJSON(t, ts2.URL+"/v1/analyze", `{"benchmark": "022.li"}`)
	if code != http.StatusOK {
		t.Fatalf("poisoned unit after restart = %d: %s", code, body)
	}
	if h := hdr.Get("Delinq-Cache"); h != "miss" {
		t.Errorf("poisoned unit replayed from state (cache=%q), want miss — killed fills must never persist", h)
	}
	if got := workerStat(t, s2, "requests_total"); got != 1 {
		t.Errorf("recompute did not cross a worker: delinq_worker_requests_total = %d, want 1", got)
	}
}

// TestRequestBodyLimit: a body past maxBodyBytes is a 413 with the
// daemon's usual JSON error envelope, not a hung or torn connection.
func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	huge := `{"source": "` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	code, hdr, body := postJSON(t, ts.URL+"/v1/analyze", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d (%s), want 413", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("413 Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(body, `"error"`) || !strings.Contains(body, "byte limit") {
		t.Errorf("413 envelope missing the limit message: %s", body)
	}

	// A body exactly at the limit parses fine (it fails validation, not
	// the size gate).
	okSize := `{"source": "int main() { return 0; }"}`
	if code, _, body := postJSON(t, ts.URL+"/v1/analyze", okSize); code != http.StatusOK {
		t.Errorf("small body = %d: %s", code, body)
	}
}
