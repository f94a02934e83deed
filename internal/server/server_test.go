package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"delinq/internal/bench"
	"delinq/internal/faultinject"
	"delinq/internal/workerpool"
)

// srcLoop is a small mini-C program with a strided array walk: cheap to
// compile and simulate, and load-bearing enough for the identifier to
// have something to say.
const srcLoop = `
int a[256];
int main() {
	int i; int s = 0;
	for (i = 0; i < 20000; i++) { s = s + a[(i * 16) & 255]; }
	print_int(s);
	return 0;
}`

// srcSpin runs long enough that only a deadline or a drain abort ends
// it (billions of iterations; the VM polls its context while running).
const srcSpin = `
int main() {
	int i; int s = 0;
	for (i = 0; i < 2000000000; i++) { s = s + i; }
	return s;
}`

func newTestDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestAnalyzeSource(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	body := fmt.Sprintf(`{"source": %q}`, srcLoop)
	code, _, got := postJSON(t, ts.URL+"/v1/analyze", body)
	if code != http.StatusOK {
		t.Fatalf("analyze = %d: %s", code, got)
	}
	var resp workerpool.AnalyzeResponse
	if err := json.Unmarshal([]byte(got), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, got)
	}
	if resp.Heuristic.Loads == 0 {
		t.Error("analysis saw zero loads in a program full of them")
	}
	if resp.Heuristic.Pi < 0 || resp.Heuristic.Pi > 1 || resp.Heuristic.Rho < 0 || resp.Heuristic.Rho > 1 {
		t.Errorf("π/ρ out of range: %+v", resp.Heuristic)
	}

	// Determinism: the same request returns the same bytes.
	_, _, again := postJSON(t, ts.URL+"/v1/analyze", body)
	if got != again {
		t.Error("identical analyze requests returned different bytes")
	}
}

func TestAnalyzeBenchmark(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	code, _, got := postJSON(t, ts.URL+"/v1/analyze", `{"benchmark": "181.mcf"}`)
	if code != http.StatusOK {
		t.Fatalf("analyze benchmark = %d: %s", code, got)
	}
	var resp workerpool.AnalyzeResponse
	if err := json.Unmarshal([]byte(got), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Benchmark != "181.mcf" {
		t.Errorf("benchmark echoed as %q", resp.Benchmark)
	}
	if resp.Heuristic.Loads == 0 || resp.OKN.Loads == 0 || resp.BDH.Loads == 0 {
		t.Errorf("empty evaluation: %+v", resp)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	cases := []struct {
		name, body, want string
	}{
		{"neither", `{}`, "one of source or benchmark"},
		{"both", `{"source": "int main() { return 0; }", "benchmark": "181.mcf"}`, "mutually exclusive"},
		{"unknown benchmark", `{"benchmark": "999.nope"}`, "unknown benchmark"},
		{"args with benchmark", `{"benchmark": "181.mcf", "args": [1]}`, "args are only valid with source"},
		{"bad json", `{"source": `, "bad request body"},
		{"unknown field", `{"source": "int main() { return 0; }", "optimise": true}`, "unknown field"},
		{"compile error", `{"source": "int main() { return undeclared; }"}`, "compile:"},
		{"unknown isa", `{"source": "int main() { return 0; }", "isa": "sparc"}`, "unknown machine"},
	}
	for _, tc := range cases {
		code, _, body := postJSON(t, ts.URL+"/v1/analyze", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, body)
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("%s: body %q missing %q", tc.name, body, tc.want)
		}
	}
	// The run endpoint validates the ISA through the same path.
	code, _, body := postJSON(t, ts.URL+"/v1/run", `{"source": "int main() { return 0; }", "isa": "sparc"}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "unknown machine") {
		t.Errorf("run with unknown isa: status %d body %q, want 400 naming the machine", code, body)
	}
}

// TestAnalyzeARM drives the arm backend through the JSON API: the
// request is accepted, the response echoes the ISA, and the analysis
// reports the same load population shape as mips.
func TestAnalyzeARM(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	body := fmt.Sprintf(`{"source": %q, "isa": "arm"}`, srcLoop)
	code, _, got := postJSON(t, ts.URL+"/v1/analyze", body)
	if code != http.StatusOK {
		t.Fatalf("analyze isa=arm = %d: %s", code, got)
	}
	var resp workerpool.AnalyzeResponse
	if err := json.Unmarshal([]byte(got), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, got)
	}
	if resp.ISA != "arm" {
		t.Errorf("isa echoed as %q, want arm", resp.ISA)
	}
	if resp.Heuristic.Loads == 0 {
		t.Error("arm analysis saw zero loads in a program full of them")
	}
	// The arm VM must produce the same program behaviour.
	code, _, got = postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"source": %q, "isa": "arm"}`, srcLoop))
	if code != http.StatusOK {
		t.Fatalf("run isa=arm = %d: %s", code, got)
	}
	var rr workerpool.RunResponse
	if err := json.Unmarshal([]byte(got), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Exit != 0 || rr.Output != "0" {
		t.Errorf("arm run diverged: %+v", rr)
	}
}

func TestRunSourceAndBenchmark(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	code, _, got := postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"source": %q}`, srcLoop))
	if code != http.StatusOK {
		t.Fatalf("run source = %d: %s", code, got)
	}
	var rr workerpool.RunResponse
	if err := json.Unmarshal([]byte(got), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Exit != 0 || rr.Insts == 0 || rr.Accesses == 0 {
		t.Errorf("implausible run result: %+v", rr)
	}
	if rr.Output != "0" {
		t.Errorf("output %q, want %q", rr.Output, "0")
	}

	code, _, got = postJSON(t, ts.URL+"/v1/run", `{"benchmark": "181.mcf", "input2": true}`)
	if code != http.StatusOK {
		t.Fatalf("run benchmark = %d: %s", code, got)
	}
	if err := json.Unmarshal([]byte(got), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Benchmark != "181.mcf" || rr.Insts == 0 {
		t.Errorf("implausible benchmark run: %+v", rr)
	}
}

func TestTableEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("table renders simulate many benchmarks")
	}
	_, ts := newTestDaemon(t, Config{})
	code, body := get(t, ts.URL+"/v1/table/4")
	if code != http.StatusOK {
		t.Fatalf("table 4 = %d: %s", code, body)
	}
	if len(body) == 0 || !strings.Contains(body, "Table 4") {
		t.Errorf("table body looks wrong: %q", body)
	}
	// Memoised second render is byte-identical.
	_, again := get(t, ts.URL+"/v1/table/4")
	if body != again {
		t.Error("repeat table render returned different bytes")
	}

	code, body = get(t, ts.URL+"/v1/table/99")
	if code != http.StatusBadRequest {
		t.Errorf("unknown table = %d (%s), want 400", code, body)
	}
}

func TestHealthEndpoints(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz = %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Errorf("readyz = %d %q", code, body)
	}
	s.BeginDrain()
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Errorf("draining readyz = %d %q", code, body)
	}
	// healthz stays green while draining: the process is alive.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Error("healthz went red during drain")
	}
}

// TestMetricsShape pins the exposition contract: every line is
// `name value`, names are sorted and delinq_-prefixed, and the request
// counters reflect exactly the traffic this test sent.
func TestMetricsShape(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcLoop))
	postJSON(t, ts.URL+"/v1/analyze", `{}`) // 400

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	line := regexp.MustCompile(`^delinq_[a-z0-9_]+ -?\d+$`)
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	var names []string
	for _, l := range lines {
		if !line.MatchString(l) {
			t.Errorf("malformed metric line %q", l)
		}
		names = append(names, strings.Fields(l)[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Error("metric names not sorted")
	}

	want := map[string]string{
		"delinq_requests_total":         "2",
		"delinq_requests_analyze_total": "2",
		"delinq_responses_200_total":    "1",
		"delinq_responses_400_total":    "1",
		"delinq_requests_inflight":      "0",
		"delinq_requests_queued":        "0",
		"delinq_requests_shed_total":    "0",
		"delinq_draining":               "0",
	}
	for name, val := range want {
		if !strings.Contains(body, name+" "+val+"\n") {
			t.Errorf("metrics missing %q = %s:\n%s", name, val, body)
		}
	}
}

// TestPanicIsolation arms the serve-stage crash seam: the handler
// panics, the middleware answers a 500 with serve-stage provenance, and
// the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})
	p := faultinject.NewPlan(1)
	p.ArmN(faultinject.WorkerPanic, "serve:analyze", 1)
	faultinject.Install(p)
	t.Cleanup(faultinject.Clear)

	code, _, body := postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcLoop))
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d (%s), want 500", code, body)
	}
	if !strings.Contains(body, `"stage":"serve"`) || !strings.Contains(body, "recovered panic") {
		t.Errorf("panic envelope missing provenance: %s", body)
	}
	if v, _ := s.Metrics().Value("delinq_panics_recovered_total"); v != 1 {
		t.Errorf("delinq_panics_recovered_total = %d, want 1", v)
	}

	// The fault was one-shot: the daemon serves the same request fine.
	code, _, body = postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcLoop))
	if code != http.StatusOK {
		t.Errorf("daemon did not survive the panic: %d %s", code, body)
	}
}

// TestErrorAccounting pins the one rule for counting failed answers,
// whole responses and batch items alike: a 500 counts once in
// delinq_errors_total and once under its stage, a 503 never counts, and
// a failed batch item carries the envelope the single answer writes.
func TestErrorAccounting(t *testing.T) {
	wantCounts := func(t *testing.T, s *Server, want map[string]int64) {
		t.Helper()
		for name, n := range want {
			if v, _ := s.Metrics().Value(name); v != n {
				t.Errorf("%s = %d, want %d", name, v, n)
			}
		}
	}

	// A serve-stage panic counts the same whether a fill recovers it
	// (the serve:analyze seam) or api's recover does (serve:batch).
	for _, c := range []struct{ seam, path, body string }{
		{"serve:analyze", "/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcLoop)},
		{"serve:batch", "/v1/analyze/batch", fmt.Sprintf(`{"requests": [{"source": %q}]}`, srcLoop)},
	} {
		t.Run("panic at "+c.seam, func(t *testing.T) {
			s, ts := newTestDaemon(t, Config{})
			p := faultinject.NewPlan(1)
			p.ArmN(faultinject.WorkerPanic, c.seam, 1)
			faultinject.Install(p)
			t.Cleanup(faultinject.Clear)

			code, _, body := postJSON(t, ts.URL+c.path, c.body)
			if code != http.StatusInternalServerError || !strings.Contains(body, `"stage":"serve"`) {
				t.Fatalf("panicking request = %d %s, want a serve-stage 500", code, body)
			}
			wantCounts(t, s, map[string]int64{
				"delinq_panics_recovered_total": 1,
				"delinq_errors_total":           1,
				"delinq_errors_serve_total":     1,
			})
		})
	}

	// A request whose client gives up while it is queued answers 503,
	// alone or as a batch item, and neither counts as a failure.
	t.Run("503 while queued", func(t *testing.T) {
		s, ts := newTestDaemon(t, Config{MaxInflight: 1, Queue: 1})
		post := func(ctx context.Context, path, body string) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		holdCtx, release := context.WithCancel(context.Background())
		defer release()
		go post(holdCtx, "/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcSpin))
		waitFor(t, func() bool { return s.adm.Inflight() == 1 })

		for _, c := range []struct{ path, body string }{
			{"/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcLoop)},
			{"/v1/analyze/batch", fmt.Sprintf(`{"requests": [{"source": %q}]}`, srcLoop)},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				post(ctx, c.path, c.body)
				close(done)
			}()
			waitFor(t, func() bool { return s.adm.Queued() == 1 })
			cancel()
			<-done
			waitFor(t, func() bool { return s.enteredRequests() == 1 })
		}
		wantCounts(t, s, map[string]int64{
			"delinq_cache_errors_total":  2, // both fills failed in the queue
			"delinq_responses_503_total": 1, // the single request
			"delinq_responses_200_total": 1, // the batch, its item a 503
			"delinq_errors_total":        0,
		})
		release()
		waitFor(t, func() bool { return s.enteredRequests() == 0 })
	})

	// A failing benchmark item names its benchmark, as the single
	// answer does.
	t.Run("benchmark item envelope", func(t *testing.T) {
		bench.ResetCache()
		t.Cleanup(bench.ResetCache)
		s, ts := newTestDaemon(t, Config{})
		p := faultinject.NewPlan(1)
		p.Arm(faultinject.SimBudget, "129.compress")
		faultinject.Install(p)
		t.Cleanup(faultinject.Clear)

		item := `{"benchmark": "129.compress"}`
		code, _, body := postJSON(t, ts.URL+"/v1/analyze", item)
		var single apiError
		if err := json.Unmarshal([]byte(body), &single); err != nil || code != http.StatusInternalServerError {
			t.Fatalf("single answer = %d %s (%v), want a 500 envelope", code, body, err)
		}
		if single.Benchmark != "129.compress" || single.Stage != "simulate" {
			t.Fatalf("single envelope = %+v, want 129.compress at the simulate stage", single)
		}
		code, _, body = postJSON(t, ts.URL+"/v1/analyze/batch", `{"requests": [`+item+`]}`)
		var resp batchResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil || code != http.StatusOK || len(resp.Results) != 1 {
			t.Fatalf("batch = %d %s (%v), want 200 with one item", code, body, err)
		}
		if got := resp.Results[0]; got.Status != http.StatusInternalServerError || got.apiError != single {
			t.Errorf("batch item = %d %+v, want 500 %+v", got.Status, got.apiError, single)
		}
		wantCounts(t, s, map[string]int64{
			"delinq_errors_total":          2,
			"delinq_errors_simulate_total": 2,
		})
	})
}

// TestShed occupies the single execution slot with a spinning request
// (admission is only taken by cache-miss fills, so the slot must be
// held by real pipeline work), then verifies that a distinct request —
// a different cache key, so it cannot hit or coalesce — is shed with
// 429 + Retry-After rather than queued forever.
func TestShed(t *testing.T) {
	s, ts := newTestDaemon(t, Config{MaxInflight: 1, Queue: -1, ReqTimeout: 2 * time.Second})

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(fmt.Sprintf(`{"source": %q}`, srcSpin)))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.adm.Inflight() == 1 })

	code, hdr, body := postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcLoop))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overloaded daemon = %d (%s), want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if v, _ := s.Metrics().Value("delinq_requests_shed_total"); v != 1 {
		t.Errorf("delinq_requests_shed_total = %d, want 1", v)
	}

	// The spinner dies at its deadline; the slot frees, service resumes.
	if code := <-done; code != http.StatusInternalServerError {
		t.Fatalf("spinning slot-holder = %d, want 500 (deadline)", code)
	}
	waitFor(t, func() bool { return s.adm.Inflight() == 0 })
	if code, _, _ := postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcLoop)); code != http.StatusOK {
		t.Errorf("service did not resume after shed: %d", code)
	}
}

// TestFailingSourcesDoNotBlockOthers: requests that fail never stand in
// the way of other work. Six distinct ad-hoc programs each run into the
// per-request deadline, and the next, unrelated program still answers
// 200: no failure count, cooldown or shared state carries over from one
// request to the next. The deadline leaves srcLoop a wide margin even
// under the race detector; the six spinners run concurrently so the
// test waits it out once.
func TestFailingSourcesDoNotBlockOthers(t *testing.T) {
	s, ts := newTestDaemon(t, Config{ReqTimeout: 2 * time.Second})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		// A distinct constant per program: six cache keys, six fills.
		src := strings.Replace(srcSpin, "s = 0", fmt.Sprintf("s = %d", i), 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json",
				strings.NewReader(fmt.Sprintf(`{"source": %q}`, src)))
			if err != nil {
				t.Errorf("spin program %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("Delinq-Cache") != "miss" {
				t.Errorf("spin program %d = %d %q, want 500 miss", i, resp.StatusCode, resp.Header.Get("Delinq-Cache"))
			}
		}()
	}
	wg.Wait()
	code, hdr, body := postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcLoop))
	if code != http.StatusOK {
		t.Fatalf("healthy program after six failures = %d (%s), want 200", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		t.Errorf("healthy program answered with Retry-After %q", ra)
	}
	if v := cacheMetric(t, s, "delinq_cache_errors_total"); v != 6 {
		t.Errorf("delinq_cache_errors_total = %d, want 6", v)
	}
}

// TestRequestTimeout: the per-request deadline reaches the VM, which
// abandons a spinning program; the client sees a 500 with simulate
// provenance instead of a hung connection.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestDaemon(t, Config{ReqTimeout: 100 * time.Millisecond})
	start := time.Now()
	code, _, body := postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"source": %q}`, srcSpin))
	if code != http.StatusInternalServerError {
		t.Fatalf("timed-out run = %d (%s), want 500", code, body)
	}
	if !strings.Contains(body, `"stage":"simulate"`) {
		t.Errorf("timeout envelope missing simulate stage: %s", body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
}

// TestBenchmarkPathUsesMemo: two analyze requests for the same
// benchmark share one compilation (the memoised bench stack dedupes).
func TestBenchmarkPathUsesMemo(t *testing.T) {
	bench.ResetCache()
	t.Cleanup(bench.ResetCache)
	_, ts := newTestDaemon(t, Config{})
	_, _, first := postJSON(t, ts.URL+"/v1/analyze", `{"benchmark": "181.mcf"}`)
	_, _, second := postJSON(t, ts.URL+"/v1/analyze", `{"benchmark": "181.mcf"}`)
	if first != second {
		t.Error("memoised benchmark analyses differ")
	}
}
