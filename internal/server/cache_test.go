// The serve-cache test battery: the Delinq-Cache header contract,
// byte-identity between hits and misses, the never-cache rules
// (failures and degraded renders), thundering-herd coalescing against a
// minimal admission budget, drain-abort of coalesced waiters, and the
// batch endpoint's amortization semantics.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"delinq/internal/bench"
	"delinq/internal/faultinject"
	"delinq/internal/tables"
)

// cacheMetric reads one delinq_cache_* value from the daemon.
func cacheMetric(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	v, ok := s.Metrics().Value(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return v
}

// TestCacheHitHeaderAndBytes pins the core contract on /v1/analyze and
// /v1/run: first request is a miss, repeats are hits, and hit bytes are
// identical to miss bytes.
func TestCacheHitHeaderAndBytes(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})
	for _, ep := range []struct {
		name, url, body string
	}{
		{"analyze", ts.URL + "/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcLoop)},
		{"run", ts.URL + "/v1/run", fmt.Sprintf(`{"source": %q, "optimize": true}`, srcLoop)},
	} {
		code, hdr, miss := postJSON(t, ep.url, ep.body)
		if code != http.StatusOK {
			t.Fatalf("%s miss = %d: %s", ep.name, code, miss)
		}
		if got := hdr.Get("Delinq-Cache"); got != "miss" {
			t.Errorf("%s first request Delinq-Cache = %q, want miss", ep.name, got)
		}
		code, hdr, hit := postJSON(t, ep.url, ep.body)
		if code != http.StatusOK {
			t.Fatalf("%s hit = %d: %s", ep.name, code, hit)
		}
		if got := hdr.Get("Delinq-Cache"); got != "hit" {
			t.Errorf("%s repeat request Delinq-Cache = %q, want hit", ep.name, got)
		}
		if miss != hit {
			t.Errorf("%s cached response diverged from computed response:\n miss: %s\n  hit: %s", ep.name, miss, hit)
		}
	}
	if hits := cacheMetric(t, s, "delinq_cache_hits_total"); hits != 2 {
		t.Errorf("delinq_cache_hits_total = %d, want 2", hits)
	}
	if misses := cacheMetric(t, s, "delinq_cache_misses_total"); misses != 2 {
		t.Errorf("delinq_cache_misses_total = %d, want 2", misses)
	}
}

// TestCacheKeyCanonicalization: line-ending and outer-whitespace
// variants of the same source share one entry; a real option change
// does not.
func TestCacheKeyCanonicalization(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})
	crlf := "\r\n" + strings.ReplaceAll(srcLoop, "\n", "\r\n") + "\r\n\r\n"
	postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"source": %q}`, srcLoop))
	_, hdr, _ := postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"source": %q}`, crlf))
	if got := hdr.Get("Delinq-Cache"); got != "hit" {
		t.Errorf("CRLF variant Delinq-Cache = %q, want hit (canonicalized)", got)
	}
	_, hdr, _ = postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"source": %q, "optimize": true}`, srcLoop))
	if got := hdr.Get("Delinq-Cache"); got != "miss" {
		t.Errorf("option change Delinq-Cache = %q, want miss (distinct key)", got)
	}
	if misses := cacheMetric(t, s, "delinq_cache_misses_total"); misses != 2 {
		t.Errorf("delinq_cache_misses_total = %d, want 2 (canonical + optimized)", misses)
	}
}

// TestCacheISAIsolation: identical source under different machine
// descriptions must never share a cache entry — an arm analysis served
// from a mips fill would silently report the wrong backend's numbers.
// The empty ISA and the explicit "mips" are the same request and do
// share one.
func TestCacheISAIsolation(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})
	for _, ep := range []string{"/v1/analyze", "/v1/run"} {
		mips := fmt.Sprintf(`{"source": %q}`, srcLoop)
		mipsExplicit := fmt.Sprintf(`{"source": %q, "isa": "mips"}`, srcLoop)
		arm := fmt.Sprintf(`{"source": %q, "isa": "arm"}`, srcLoop)

		code, hdr, _ := postJSON(t, ts.URL+ep, mips)
		if code != http.StatusOK {
			t.Fatalf("%s mips request = %d", ep, code)
		}
		if got := hdr.Get("Delinq-Cache"); got != "miss" {
			t.Errorf("%s first mips request Delinq-Cache = %q, want miss", ep, got)
		}
		// Same request with the default spelled out: a hit.
		_, hdr, _ = postJSON(t, ts.URL+ep, mipsExplicit)
		if got := hdr.Get("Delinq-Cache"); got != "hit" {
			t.Errorf(`%s explicit "mips" Delinq-Cache = %q, want hit (canonical with "")`, ep, got)
		}
		// Same source on arm: never a cross-hit.
		code, hdr, body := postJSON(t, ts.URL+ep, arm)
		if code != http.StatusOK {
			t.Fatalf("%s arm request = %d: %s", ep, code, body)
		}
		if got := hdr.Get("Delinq-Cache"); got != "miss" {
			t.Errorf("%s arm request Delinq-Cache = %q, want miss (distinct key)", ep, got)
		}
		// And the arm entry is itself cached, separately.
		_, hdr, _ = postJSON(t, ts.URL+ep, arm)
		if got := hdr.Get("Delinq-Cache"); got != "hit" {
			t.Errorf("%s repeat arm request Delinq-Cache = %q, want hit", ep, got)
		}
	}
	if misses := cacheMetric(t, s, "delinq_cache_misses_total"); misses != 4 {
		t.Errorf("delinq_cache_misses_total = %d, want 4 (mips + arm per endpoint)", misses)
	}
}

// TestCacheCoalescesThunderingHerd: N identical concurrent requests
// against ONE execution slot and NO queue. Without coalescing, all but
// one would shed 429; with it, they collapse into a single fill and all
// answer 200 with identical bytes.
func TestCacheCoalescesThunderingHerd(t *testing.T) {
	const herd = 8
	s, ts := newTestDaemon(t, Config{MaxInflight: 1, Queue: -1})
	// A source heavy enough (~2M iterations) that the herd lands while
	// the first fill is still simulating.
	src := `
int a[256];
int main() {
	int i; int s = 0;
	for (i = 0; i < 2000000; i++) { s = s + a[(i * 4) & 255]; }
	print_int(s);
	return 0;
}`
	body := fmt.Sprintf(`{"source": %q}`, src)

	var wg sync.WaitGroup
	codes := make([]int, herd)
	bodies := make([]string, herd)
	outcomes := make([]string, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("herd request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var sb strings.Builder
			buf := make([]byte, 4096)
			for {
				n, err := resp.Body.Read(buf)
				sb.Write(buf[:n])
				if err != nil {
					break
				}
			}
			codes[i], bodies[i], outcomes[i] = resp.StatusCode, sb.String(), resp.Header.Get("Delinq-Cache")
		}(i)
	}
	wg.Wait()

	var fills int
	for i := 0; i < herd; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("herd request %d = %d (%s): the herd did not collapse", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("herd request %d bytes diverged", i)
		}
		if outcomes[i] == "miss" {
			fills++
		}
	}
	if fills != 1 {
		t.Errorf("%d herd members report miss, want exactly 1 (one pipeline run)", fills)
	}
	if v := cacheMetric(t, s, "delinq_cache_misses_total"); v != 1 {
		t.Errorf("delinq_cache_misses_total = %d, want 1", v)
	}
	if v, _ := s.Metrics().Value("delinq_requests_shed_total"); v != 0 {
		t.Errorf("delinq_requests_shed_total = %d: coalescing should spare the herd from shedding", v)
	}
}

// TestCacheFailureNotCached: a request that fails (injected panic →
// 500) is never retained — the retry recomputes and succeeds, and only
// then does the cache start answering.
func TestCacheFailureNotCached(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})
	p := faultinject.NewPlan(1)
	p.ArmN(faultinject.WorkerPanic, "serve:analyze", 1)
	faultinject.Install(p)
	t.Cleanup(faultinject.Clear)

	body := fmt.Sprintf(`{"source": %q}`, srcLoop)
	code, hdr, got := postJSON(t, ts.URL+"/v1/analyze", body)
	if code != http.StatusInternalServerError {
		t.Fatalf("sabotaged request = %d (%s), want 500", code, got)
	}
	if !strings.Contains(got, `"stage":"serve"`) || !strings.Contains(got, "recovered panic") {
		t.Errorf("panic envelope missing provenance: %s", got)
	}
	if h := hdr.Get("Delinq-Cache"); h != "miss" {
		t.Errorf("failed request Delinq-Cache = %q, want miss", h)
	}
	if v, _ := s.Metrics().Value("delinq_panics_recovered_total"); v != 1 {
		t.Errorf("delinq_panics_recovered_total = %d, want 1", v)
	}

	// The failure was not cached: the retry recomputes (miss, not hit)
	// and succeeds now that the one-shot fault is spent.
	code, hdr, _ = postJSON(t, ts.URL+"/v1/analyze", body)
	if code != http.StatusOK || hdr.Get("Delinq-Cache") != "miss" {
		t.Fatalf("retry = %d %q, want 200 miss (failure must not be cached)", code, hdr.Get("Delinq-Cache"))
	}
	_, hdr, _ = postJSON(t, ts.URL+"/v1/analyze", body)
	if hdr.Get("Delinq-Cache") != "hit" {
		t.Errorf("third request = %q, want hit", hdr.Get("Delinq-Cache"))
	}
	if v := cacheMetric(t, s, "delinq_cache_errors_total"); v != 1 {
		t.Errorf("delinq_cache_errors_total = %d, want 1", v)
	}
}

// TestCachePipelineFailureNotCached: same rule at the pipeline level —
// an injected simulation failure answers 500 with sim provenance, and
// the retry after the fault clears recomputes instead of replaying it.
func TestCachePipelineFailureNotCached(t *testing.T) {
	bench.ResetCache()
	t.Cleanup(func() {
		faultinject.Clear()
		bench.ResetCache()
	})
	_, ts := newTestDaemon(t, Config{})
	p := faultinject.NewPlan(1)
	p.ArmN(faultinject.SimBudget, "181.mcf", 1)
	faultinject.Install(p)

	code, hdr, got := postJSON(t, ts.URL+"/v1/analyze", `{"benchmark": "181.mcf"}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("sabotaged simulate = %d (%s), want 500", code, got)
	}
	if h := hdr.Get("Delinq-Cache"); h != "miss" {
		t.Errorf("failed request Delinq-Cache = %q, want miss", h)
	}

	code, hdr, _ = postJSON(t, ts.URL+"/v1/analyze", `{"benchmark": "181.mcf"}`)
	if code != http.StatusOK {
		t.Fatalf("retry after fault = %d, want 200", code)
	}
	if h := hdr.Get("Delinq-Cache"); h != "miss" {
		t.Errorf("retry Delinq-Cache = %q, want miss (the 500 was not cached)", h)
	}
}

// TestCacheHitWhileUnitFails: while every fresh simulation of one
// benchmark fails, its misses answer 500 and are never cached, and a
// key of that benchmark cached before the fault still hits
// byte-identically.
func TestCacheHitWhileUnitFails(t *testing.T) {
	bench.ResetCache()
	t.Cleanup(func() {
		faultinject.Clear()
		bench.ResetCache()
	})
	s, ts := newTestDaemon(t, Config{})

	// Cache a healthy 181.mcf result BEFORE the benchmark gets sick.
	healthyBody := `{"benchmark": "181.mcf"}`
	_, _, healthy := postJSON(t, ts.URL+"/v1/analyze", healthyBody)

	p := faultinject.NewPlan(1)
	p.Arm(faultinject.SimBudget, "181.mcf")
	faultinject.Install(p)

	// Two keys that each need a fresh simulation, the first asked twice:
	// every request runs the pipeline and fails the same way.
	for i, body := range []string{
		`{"benchmark": "181.mcf", "optimize": true}`,
		`{"benchmark": "181.mcf", "optimize": true, "input2": true}`,
		`{"benchmark": "181.mcf", "optimize": true}`,
	} {
		code, hdr, got := postJSON(t, ts.URL+"/v1/analyze", body)
		if code != http.StatusInternalServerError || !strings.Contains(got, `"stage":"simulate"`) {
			t.Fatalf("failing request %d = %d (%s), want 500 at the simulate stage", i, code, got)
		}
		if h := hdr.Get("Delinq-Cache"); h != "miss" {
			t.Errorf("failing request %d Delinq-Cache = %q, want miss", i, h)
		}
	}
	if v := cacheMetric(t, s, "delinq_cache_errors_total"); v != 3 {
		t.Errorf("delinq_cache_errors_total = %d, want 3", v)
	}
	// No failure was cached: only the healthy entry.
	if v := cacheMetric(t, s, "delinq_cache_entries"); v != 1 {
		t.Errorf("delinq_cache_entries = %d, want 1 (the healthy entry)", v)
	}

	// The already-cached key still answers 200 hit, byte-identical: a
	// failing benchmark never blocks answers the daemon already computed.
	code, hdr, got := postJSON(t, ts.URL+"/v1/analyze", healthyBody)
	if code != http.StatusOK || hdr.Get("Delinq-Cache") != "hit" || got != healthy {
		t.Errorf("cached hit while the benchmark fails = %d %q (bytes equal: %v)",
			code, hdr.Get("Delinq-Cache"), got == healthy)
	}
}

// TestCacheDrainAbortsCoalescedWaiters: a forced drain cancels both the
// executing fill and the waiter coalesced onto it — nobody hangs.
func TestCacheDrainAbortsCoalescedWaiters(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})
	body := fmt.Sprintf(`{"source": %q}`, srcSpin)

	post := func(done chan<- int) {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}
	executor := make(chan int, 1)
	waiter := make(chan int, 1)
	go post(executor)
	waitFor(t, func() bool { return s.adm.Inflight() == 1 })
	go post(waiter)
	waitFor(t, func() bool { return cacheMetric(t, s, "delinq_cache_coalesced_total") == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain = %v, want DeadlineExceeded", err)
	}
	if code := <-executor; code != http.StatusInternalServerError {
		t.Errorf("aborted executor answered %d, want 500", code)
	}
	if code := <-waiter; code != http.StatusInternalServerError && code != http.StatusServiceUnavailable {
		t.Errorf("aborted coalesced waiter answered %d, want 500 or 503", code)
	}
}

// srcHeavy is a VM-heavy kernel: tens of milliseconds of simulation,
// long enough for a second client to coalesce onto it.
const srcHeavy = `
int a[4096];
int main() {
	int i; int s = 0;
	for (i = 0; i < 1000000; i++) { s = s + a[(i * 16) & 4095]; }
	print_int(s);
	return 0;
}`

// TestCoalescedWaiterOutlivesLeader: client A starts a cold VM-heavy
// analyze, client B posts the same body and coalesces onto A's fill,
// then A hangs up. B's context is alive, so B does not inherit A's
// cancellation (a 500 blaming the simulate stage): its request runs
// the pipeline again and answers 200 with the body a fresh daemon
// gives.
func TestCoalescedWaiterOutlivesLeader(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})
	body := fmt.Sprintf(`{"source": %q}`, srcHeavy)
	post := func(ctx context.Context) (int, string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), err
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	leader := make(chan error, 1)
	go func() {
		_, _, err := post(ctxA)
		leader <- err
	}()
	waitFor(t, func() bool { return s.adm.Inflight() == 1 })
	type reply struct {
		code int
		body string
		err  error
	}
	waiter := make(chan reply, 1)
	go func() {
		code, got, err := post(context.Background())
		waiter <- reply{code, got, err}
	}()
	waitFor(t, func() bool { return cacheMetric(t, s, "delinq_cache_coalesced_total") == 1 })
	cancelA()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Errorf("client A = %v, want its own cancellation", err)
	}
	r := <-waiter
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("coalesced client B = %d %s (%v), want 200", r.code, r.body, r.err)
	}
	_, fresh := newTestDaemon(t, Config{})
	if code, _, want := postJSON(t, fresh.URL+"/v1/analyze", body); code != http.StatusOK || r.body != want {
		t.Errorf("client B's body differs from a fresh daemon's (%d):\n%s\nwant:\n%s", code, r.body, want)
	}
}

// TestBatchEndpoint: per-item statuses and cache outcomes, shared cache
// with single requests, and envelope validation.
func TestBatchEndpoint(t *testing.T) {
	bench.ResetCache()
	t.Cleanup(bench.ResetCache)
	s, ts := newTestDaemon(t, Config{})

	batch := fmt.Sprintf(`{"requests": [
		{"benchmark": "181.mcf"},
		{"benchmark": "181.mcf"},
		{"source": %q},
		{}
	]}`, srcLoop)
	code, _, body := postJSON(t, ts.URL+"/v1/analyze/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, body)
	}
	var resp batchResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad batch JSON: %v\n%s", err, body)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("batch answered %d results, want 4", len(resp.Results))
	}
	wantStatus := []int{200, 200, 200, 400}
	wantCache := []string{"miss", "hit", "miss", ""}
	for i, r := range resp.Results {
		if r.Status != wantStatus[i] {
			t.Errorf("item %d status = %d, want %d (%s)", i, r.Status, wantStatus[i], r.Error)
		}
		if r.Cache != wantCache[i] {
			t.Errorf("item %d cache = %q, want %q", i, r.Cache, wantCache[i])
		}
	}
	if string(resp.Results[0].Response) != string(resp.Results[1].Response) {
		t.Error("duplicate batch items returned different payloads")
	}
	if !strings.Contains(resp.Results[3].Error, "one of source or benchmark") {
		t.Errorf("invalid item error = %q", resp.Results[3].Error)
	}

	// The batch populated the shared cache: a single request now hits.
	_, hdr, single := postJSON(t, ts.URL+"/v1/analyze", `{"benchmark": "181.mcf"}`)
	if hdr.Get("Delinq-Cache") != "hit" {
		t.Errorf("single request after batch = %q, want hit", hdr.Get("Delinq-Cache"))
	}
	// And the batch item's payload is the single response minus the
	// envelope newline.
	if strings.TrimSpace(single) != string(resp.Results[0].Response) {
		t.Error("batch item payload diverged from the single-request payload")
	}

	// Envelope validation.
	if code, _, _ := postJSON(t, ts.URL+"/v1/analyze/batch", `{"requests": []}`); code != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", code)
	}
	var big strings.Builder
	big.WriteString(`{"requests": [`)
	for i := 0; i <= maxBatch; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString(`{"benchmark": "181.mcf"}`)
	}
	big.WriteString(`]}`)
	if code, _, _ := postJSON(t, ts.URL+"/v1/analyze/batch", big.String()); code != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", code)
	}

	// Batch requests are counted under their own name.
	if v, _ := s.Metrics().Value("delinq_requests_batch_total"); v != 3 {
		t.Errorf("delinq_requests_batch_total = %d, want 3", v)
	}
}

// TestTableDegradedNotCached: a degraded table render answers 200 with
// the Delinq-Degraded header but is never retained; once the fault
// clears, the next render recomputes cleanly and THAT one is cached.
func TestTableDegradedNotCached(t *testing.T) {
	if testing.Short() {
		t.Skip("table renders simulate many benchmarks")
	}
	bench.ResetCache()
	t.Cleanup(func() {
		faultinject.Clear()
		bench.ResetCache()
	})
	_, ts := newTestDaemon(t, Config{})

	p := faultinject.NewPlan(1)
	p.Arm(faultinject.SimBudget, "181.mcf")
	faultinject.Install(p)

	code, resp := getFull(t, ts.URL+"/v1/table/2")
	if code != http.StatusOK {
		t.Fatalf("degraded table = %d", code)
	}
	if resp.Header.Get("Delinq-Degraded") == "" {
		t.Fatal("sabotaged render did not degrade; the test proves nothing")
	}
	if h := resp.Header.Get("Delinq-Cache"); h != "miss" {
		t.Errorf("degraded render Delinq-Cache = %q, want miss", h)
	}

	faultinject.Clear()
	bench.ResetCache()

	code, resp = getFull(t, ts.URL+"/v1/table/2")
	if code != http.StatusOK {
		t.Fatalf("healthy table = %d", code)
	}
	if h := resp.Header.Get("Delinq-Cache"); h != "miss" {
		t.Errorf("post-fault render Delinq-Cache = %q, want miss (degraded result must not be cached)", h)
	}
	if resp.Header.Get("Delinq-Degraded") != "" {
		t.Error("healthy render still flagged degraded")
	}
	healthy := resp.body

	code, resp = getFull(t, ts.URL+"/v1/table/2")
	if h := resp.Header.Get("Delinq-Cache"); code != http.StatusOK || h != "hit" {
		t.Errorf("third render = %d %q, want 200 hit", code, h)
	}
	if resp.body != healthy {
		t.Error("cached table diverged from computed table")
	}
}

// TestPatternFailureLeavesNoState: a pattern-analysis failure answers
// 500 at the pattern stage and no memo keeps it. Once the fault clears,
// with no bench.ResetCache in between, the same analyze recomputes and
// a run of the same benchmark succeeds.
func TestPatternFailureLeavesNoState(t *testing.T) {
	bench.ResetCache()
	t.Cleanup(func() {
		faultinject.Clear()
		bench.ResetCache()
	})
	_, ts := newTestDaemon(t, Config{})
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.PatternBudget, "181.mcf")
	faultinject.Install(p)

	body := `{"benchmark": "181.mcf"}`
	code, _, got := postJSON(t, ts.URL+"/v1/analyze", body)
	if code != http.StatusInternalServerError || !strings.Contains(got, `"stage":"pattern"`) {
		t.Fatalf("sabotaged analyze = %d (%s), want 500 at the pattern stage", code, got)
	}

	faultinject.Clear()
	code, hdr, got := postJSON(t, ts.URL+"/v1/analyze", body)
	if code != http.StatusOK || hdr.Get("Delinq-Cache") != "miss" {
		t.Fatalf("analyze after the fault cleared = %d %q (%s), want 200 miss",
			code, hdr.Get("Delinq-Cache"), got)
	}
	if code, _, got := postJSON(t, ts.URL+"/v1/run", body); code != http.StatusOK {
		t.Fatalf("run after the fault cleared = %d (%s), want 200", code, got)
	}
}

// TestTrainingFaultLeavesNoState: a training benchmark that fails during
// a cold Table 5 render degrades that render only. The weights trained
// on the healthy remainder are not memoised, so once the fault clears
// the next render trains on the full set and matches the golden table.
func TestTrainingFaultLeavesNoState(t *testing.T) {
	if testing.Short() {
		t.Skip("training simulates every training benchmark")
	}
	bench.ResetCache()
	tables.ResetTraining()
	t.Cleanup(func() {
		faultinject.Clear()
		bench.ResetCache()
		tables.ResetTraining()
	})
	_, ts := newTestDaemon(t, Config{})
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.SimBudget, "175.vpr")
	faultinject.Install(p)

	code, resp := getFull(t, ts.URL+"/v1/table/5")
	if code != http.StatusOK || resp.Header.Get("Delinq-Degraded") != "1" {
		t.Fatalf("sabotaged render = %d, Delinq-Degraded %q; want 200 and 1",
			code, resp.Header.Get("Delinq-Degraded"))
	}

	faultinject.Clear()
	code, resp = getFull(t, ts.URL+"/v1/table/5")
	if code != http.StatusOK || resp.Header.Get("Delinq-Degraded") != "" {
		t.Fatalf("render after the fault cleared = %d, Delinq-Degraded %q; want 200 and none",
			code, resp.Header.Get("Delinq-Degraded"))
	}
	if want := goldenTable(t, "5"); resp.body != want {
		t.Errorf("Table 5 after the fault cleared diverges from tables_output.txt:\ngot:\n%s\nwant:\n%s", resp.body, want)
	}
}

// goldenTable returns table id's block of the committed
// tables_output.txt: its title line through the blank line ending it.
func goldenTable(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile("../../tables_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	start := strings.Index(s, "Table "+id+". ")
	if start < 0 {
		t.Fatalf("no Table %s in tables_output.txt", id)
	}
	return s[start : start+strings.Index(s[start:], "\n\n")+2]
}

// fullResp carries a response's headers and body for header-sensitive
// GET assertions.
type fullResp struct {
	Header http.Header
	body   string
}

func getFull(t *testing.T, url string) (int, fullResp) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 8192)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return resp.StatusCode, fullResp{Header: resp.Header, body: sb.String()}
}
