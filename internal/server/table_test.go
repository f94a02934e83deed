package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"delinq/internal/bench"
	"delinq/internal/tables"
)

// coldTables empties the build, run and training memos for one test, so
// a table render has to compile, simulate and train from scratch.
func coldTables(t *testing.T) {
	t.Helper()
	bench.ResetCache()
	tables.ResetTraining()
	t.Cleanup(func() {
		bench.ResetCache()
		tables.ResetTraining()
	})
}

// tableResult is one table response seen from a background client: its
// status (-1 when the request itself failed) and Delinq-Degraded header.
type tableResult struct {
	code     int
	degraded string
}

// getTable issues GET url under ctx and reports the outcome on the
// returned channel.
func getTable(ctx context.Context, url string) <-chan tableResult {
	done := make(chan tableResult, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			done <- tableResult{code: -1}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- tableResult{code: -1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- tableResult{code: resp.StatusCode, degraded: resp.Header.Get("Delinq-Degraded")}
	}()
	return done
}

// renderStarted reports whether a cold render has begun compiling.
func renderStarted() bool {
	bs, _ := bench.CacheStats()
	return bs.Misses > 0
}

// TestTableIDCheckedBeforeAdmission: an unknown table id is the client's
// mistake, answered 400 without an execution slot, like an unknown
// benchmark, even while a spinning run holds the only slot.
func TestTableIDCheckedBeforeAdmission(t *testing.T) {
	s, ts := newTestDaemon(t, Config{MaxInflight: 1, Queue: -1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spinning := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run",
			strings.NewReader(fmt.Sprintf(`{"source": %q}`, srcSpin)))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		spinning <- err
	}()
	waitFor(t, func() bool { return s.adm.Inflight() == 1 })

	for _, id := range []string{"99", "all", "s9"} {
		if code, body := get(t, ts.URL+"/v1/table/"+id); code != http.StatusBadRequest {
			t.Errorf("GET /v1/table/%s with the only slot busy = %d (%s), want 400", id, code, body)
		}
	}
	code, _, body := postJSON(t, ts.URL+"/v1/analyze", `{"benchmark": "nope"}`)
	if code != http.StatusBadRequest {
		t.Errorf("analyze of an unknown benchmark = %d (%s), want 400", code, body)
	}
	if v, _ := s.Metrics().Value("delinq_requests_shed_total"); v != 0 {
		t.Errorf("delinq_requests_shed_total = %d, want 0", v)
	}

	// The client hangs up; the spinner's request context ends the run.
	cancel()
	<-spinning
	waitFor(t, func() bool { return s.adm.Inflight() == 0 })
}

// TestTableCacheKeyCanonical: "S3" and "s3" name one table, so they
// share one render and one cache entry.
func TestTableCacheKeyCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("table renders simulate many benchmarks")
	}
	s, ts := newTestDaemon(t, Config{})
	code, first := getFull(t, ts.URL+"/v1/table/S3")
	if code != http.StatusOK || first.Header.Get("Delinq-Cache") != "miss" {
		t.Fatalf("GET /v1/table/S3 = %d %q, want 200 miss", code, first.Header.Get("Delinq-Cache"))
	}
	code, second := getFull(t, ts.URL+"/v1/table/s3")
	if code != http.StatusOK || second.Header.Get("Delinq-Cache") != "hit" {
		t.Errorf("GET /v1/table/s3 = %d %q, want 200 hit", code, second.Header.Get("Delinq-Cache"))
	}
	if second.body != first.body {
		t.Error("s3 and S3 answered different bodies")
	}
	if st := s.cache.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Errorf("result cache: %+v, want one entry from one render", st)
	}
}

// TestTableRendersConcurrently: renders do not queue behind one
// another. While a cold S5 render is in flight, the static Table 6
// answers at once; when S5's client then hangs up, its render stops.
func TestTableRendersConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("table renders simulate many benchmarks")
	}
	coldTables(t)
	s, ts := newTestDaemon(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := getTable(ctx, ts.URL+"/v1/table/S5")
	waitFor(t, renderStarted)

	start := time.Now()
	code, body := get(t, ts.URL+"/v1/table/6")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Table 6 took %v behind the S5 render, want under 1s", elapsed)
	}
	if code != http.StatusOK || !strings.Contains(body, "Table 6.") {
		t.Errorf("GET /v1/table/6 = %d %q", code, body)
	}

	cancel()
	<-done
	waitFor(t, func() bool { return s.enteredRequests() == 0 })
}

// TestDrainAbortsTableRender: the drain abort reaches a table render
// through its request context. With a cold S5 render in flight, a
// Drain whose deadline passes returns promptly, the straggler answers
// 5xx (or 200 flagged degraded), and the result cache keeps no table.
func TestDrainAbortsTableRender(t *testing.T) {
	if testing.Short() {
		t.Skip("table renders simulate many benchmarks")
	}
	coldTables(t)
	s, ts := newTestDaemon(t, Config{})
	done := getTable(context.Background(), ts.URL+"/v1/table/S5")
	waitFor(t, renderStarted)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Drain took %v, want under 1s", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("forced drain = %v, want DeadlineExceeded", err)
	}
	r := <-done
	if r.code < http.StatusInternalServerError && (r.code != http.StatusOK || r.degraded == "") {
		t.Errorf("aborted S5 render answered %d (Delinq-Degraded %q), want 5xx or a degraded 200", r.code, r.degraded)
	}
	if st := s.cache.Stats(); st.Entries != 0 {
		t.Errorf("result cache kept %d entries after the aborted render", st.Entries)
	}
}
