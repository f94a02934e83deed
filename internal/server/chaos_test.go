// The daemon's chaos test: a fault storm against a live listening
// server. One benchmark is sabotaged with a persistent worker panic
// while another stays healthy. The daemon must never die, must
// partition its answers correctly — 500 with stage provenance for every
// sabotaged request, 400 for client mistakes, 200 for healthy work —
// and must serve byte-identical healthy responses before, during, and
// after the storm. The moment the faults are cleared the sabotaged
// benchmark answers again: nothing remembers the storm.
package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"delinq/internal/bench"
	"delinq/internal/faultinject"
)

func TestServeChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("full storm in short mode")
	}
	bench.ResetCache()
	t.Cleanup(func() {
		faultinject.Clear()
		bench.ResetCache()
	})

	const (
		victim  = "022.li"
		healthy = "181.mcf"
		storms  = 6
	)
	s := New(Config{Addr: "127.0.0.1:0"})
	addrCh := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- s.ListenAndServe(func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-serveErr:
		t.Fatalf("daemon failed to listen: %v", err)
	}

	analyze := func(name string) (int, string) {
		code, _, body := postJSON(t, base+"/v1/analyze", fmt.Sprintf(`{"benchmark": %q}`, name))
		return code, body
	}

	// --- before the storm: capture the healthy golden bytes -------------
	code, golden := analyze(healthy)
	if code != http.StatusOK {
		t.Fatalf("healthy baseline = %d: %s", code, golden)
	}
	// The result cache is live: the baseline recomputed, a repeat hits
	// and answers the exact same bytes.
	if code, hdr, body := postJSON(t, base+"/v1/analyze", fmt.Sprintf(`{"benchmark": %q}`, healthy)); code != http.StatusOK ||
		hdr.Get("Delinq-Cache") != "hit" || body != golden {
		t.Fatalf("healthy repeat = %d cache=%q (bytes equal: %v), want 200 hit identical",
			code, hdr.Get("Delinq-Cache"), body == golden)
	}

	// --- the storm ------------------------------------------------------
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.WorkerPanic, victim)
	faultinject.Install(p)

	// Every failed request carries worker-stage provenance, however many
	// came before it. Every one recomputes — a failure must never be
	// served from (or admitted into) the cache, or a single glitch would
	// replay forever.
	for i := 0; i < storms; i++ {
		code, hdr, body := postJSON(t, base+"/v1/analyze", fmt.Sprintf(`{"benchmark": %q}`, victim))
		if code != http.StatusInternalServerError {
			t.Fatalf("storm request %d = %d (%s), want 500", i, code, body)
		}
		if !strings.Contains(body, `"stage":"worker"`) {
			t.Errorf("storm request %d missing worker provenance: %s", i, body)
		}
		if h := hdr.Get("Delinq-Cache"); h != "miss" {
			t.Errorf("storm request %d Delinq-Cache = %q, want miss (failures are never cached)", i, h)
		}
	}
	// Client mistakes still partition as 400, not 500, mid-storm.
	if code, _, body := postJSON(t, base+"/v1/analyze", `{"benchmark": "999.nope"}`); code != http.StatusBadRequest {
		t.Errorf("bad request during storm = %d (%s), want 400", code, body)
	}

	// Healthy work is untouched: same status, same bytes — now straight
	// from the cache, so the storm cannot even perturb its latency.
	if code, hdr, body := postJSON(t, base+"/v1/analyze", fmt.Sprintf(`{"benchmark": %q}`, healthy)); code != http.StatusOK ||
		hdr.Get("Delinq-Cache") != "hit" || body != golden {
		t.Errorf("healthy response diverged during storm (code %d, cache %q)", code, hdr.Get("Delinq-Cache"))
	}

	// A concurrent mixed burst: every healthy answer is byte-identical,
	// every victim answer is a clean 500 miss, and nothing escapes the
	// panic isolation (the daemon keeps answering). The victim requests
	// take eight distinct keys so none can coalesce onto another.
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 16; i++ {
		name := healthy
		body := fmt.Sprintf(`{"benchmark": %q}`, healthy)
		if i%2 == 0 {
			k := i / 2
			name = victim
			body = fmt.Sprintf(`{"benchmark": %q, "optimize": %t, "input2": %t, "inter": %t}`,
				victim, k&1 != 0, k&2 != 0, k&4 != 0)
		}
		wg.Add(1)
		go func(name, body string) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
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
			got := string(b)
			switch name {
			case healthy:
				if resp.StatusCode != http.StatusOK || got != golden {
					errs <- fmt.Sprintf("healthy burst = %d, bytes diverged", resp.StatusCode)
				}
			case victim:
				if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("Delinq-Cache") != "miss" {
					errs <- fmt.Sprintf("victim burst %s = %d %q, want 500 miss",
						body, resp.StatusCode, resp.Header.Get("Delinq-Cache"))
				}
			}
		}(name, body)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatal("daemon unhealthy mid-storm: a panic escaped somewhere")
	}

	// --- recovery -------------------------------------------------------
	faultinject.Clear()
	bench.ResetCache() // drop any memoised degraded build

	// The very next request succeeds, with no wait. It is a genuine
	// recompute (nothing poisoned the cache during the storm), and only
	// the now-healthy result gets cached.
	code, rhdr, first := postJSON(t, base+"/v1/analyze", fmt.Sprintf(`{"benchmark": %q}`, victim))
	if code != http.StatusOK {
		t.Fatalf("victim after recovery = %d: %s", code, first)
	}
	if h := rhdr.Get("Delinq-Cache"); h != "miss" {
		t.Errorf("first request after recovery Delinq-Cache = %q, want miss", h)
	}
	if code, hdr, body := postJSON(t, base+"/v1/analyze", fmt.Sprintf(`{"benchmark": %q}`, victim)); code != http.StatusOK ||
		hdr.Get("Delinq-Cache") != "hit" || body != first {
		t.Errorf("recovered victim not deterministic (code %d, cache %q)", code, hdr.Get("Delinq-Cache"))
	}
	// Healthy bytes survived the whole ordeal.
	if code, body := analyze(healthy); code != http.StatusOK || body != golden {
		t.Errorf("healthy response diverged after storm (code %d)", code)
	}

	// The storm is visible in the daemon's own telemetry.
	reg := s.Metrics()
	if v, _ := reg.Value("delinq_errors_worker_total"); v < storms {
		t.Errorf("delinq_errors_worker_total = %d, want >= %d", v, storms)
	}
	// ...and so is the cache's: healthy hits accumulated, every storm
	// failure counted as an uncached fill error, nothing degraded or
	// poisoned slipped into the retained entries.
	if v, _ := reg.Value("delinq_cache_hits_total"); v < 3 {
		t.Errorf("delinq_cache_hits_total = %d, want >= 3", v)
	}
	if v, _ := reg.Value("delinq_cache_errors_total"); v < storms {
		t.Errorf("delinq_cache_errors_total = %d, want >= %d", v, storms)
	}
	if v, _ := reg.Value("delinq_cache_entries"); v != 2 {
		t.Errorf("delinq_cache_entries = %d, want 2 (healthy + recovered victim)", v)
	}

	// --- shutdown -------------------------------------------------------
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after the storm: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}
