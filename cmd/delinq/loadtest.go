// The loadtest command: a closed-loop (or rate-paced) load generator
// for the analysis daemon, proving the result cache's effect under a
// skewed key distribution. Each worker draws a key from a Zipf (or
// uniform) popularity curve over a universe of generated mini-C
// sources, posts it to /v1/analyze or /v1/run, and records the
// latency bucketed by the daemon's own Delinq-Cache verdict. The run
// ends with per-outcome p50/p99, throughput, hit ratio, shed and
// error counts, and a scrape of the daemon's delinq_cache_* metrics —
// written as a delinq-loadtest/v1 JSON report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"delinq/internal/server"
)

// ltSample is one completed request as the client saw it.
type ltSample struct {
	latency time.Duration
	status  int
	outcome string // Delinq-Cache header: hit|warm|miss|coalesced|""
}

// ltSummary is the percentile digest for one latency bucket.
type ltSummary struct {
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// ltReport is the delinq-loadtest/v1 schema written to -o.
type ltReport struct {
	Schema        string               `json:"schema"`
	Endpoint      string               `json:"endpoint"`
	Workers       int                  `json:"workers"`
	DurationSec   float64              `json:"duration_sec"`
	TargetRPS     float64              `json:"target_rps"`
	Keys          int                  `json:"keys"`
	Skew          float64              `json:"skew"`
	Seed          int64                `json:"seed"`
	Isolate       bool                 `json:"isolate,omitempty"`
	Requests      int                  `json:"requests"`
	ThroughputRPS float64              `json:"throughput_rps"`
	HitRatio      float64              `json:"hit_ratio"`
	Shed          int                  `json:"shed"`
	Errors        int                  `json:"errors"`
	Latency       map[string]ltSummary `json:"latency_ms"`
	ServerMetrics map[string]int64     `json:"server_metrics,omitempty"`
}

func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon base URL (empty = run an in-process daemon)")
	workers := fs.Int("workers", 8, "concurrent client workers")
	duration := fs.Duration("duration", 3*time.Second, "how long to drive load")
	rps := fs.Float64("rps", 0, "target request rate across all workers (0 = closed loop)")
	keys := fs.Int("keys", 16, "distinct generated sources in the key universe")
	skew := fs.Float64("skew", 1.2, "Zipf s parameter for key popularity (>1); 0 = uniform")
	endpoint := fs.String("endpoint", "analyze", "API to drive: analyze or run")
	seed := fs.Int64("seed", 1, "base RNG seed; worker w uses seed+w")
	out := fs.String("o", "BENCH_serve.json", "write the JSON report here ('' = stdout only)")
	stateDir := fs.String("state-dir", "", "durable-state directory for the in-process daemon (measures warm restarts)")
	isolate := fs.Bool("isolate", false, "run the in-process daemon with sandboxed subprocess workers (measures isolation overhead)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("loadtest takes no positional arguments")
	}
	if *workers < 1 {
		return usagef("loadtest -workers wants a positive count, got %d", *workers)
	}
	if *duration <= 0 {
		return usagef("loadtest -duration wants a positive duration, got %v", *duration)
	}
	if *rps < 0 {
		return usagef("loadtest -rps wants a non-negative rate, got %g", *rps)
	}
	if *keys < 1 {
		return usagef("loadtest -keys wants a positive count, got %d", *keys)
	}
	if *skew != 0 && *skew <= 1 {
		return usagef("loadtest -skew wants 0 (uniform) or a value > 1, got %g", *skew)
	}
	if *endpoint != "analyze" && *endpoint != "run" {
		return usagef("loadtest -endpoint wants analyze or run, got %q", *endpoint)
	}
	if *stateDir != "" && *addr != "" {
		return usagef("loadtest -state-dir only applies to the in-process daemon")
	}
	if *isolate && *addr != "" {
		return usagef("loadtest -isolate only applies to the in-process daemon")
	}

	base := strings.TrimRight(*addr, "/")
	if base == "" {
		// Spin up a private daemon on a loopback port; the loadtest
		// then measures the full HTTP stack, not a handler shortcut.
		// With -state-dir pointing at a previous run's state, replayed
		// entries answer as `warm` hits — the warm-vs-cold comparison.
		s := server.New(server.Config{Addr: "127.0.0.1:0", StateDir: *stateDir, Isolate: *isolate})
		if err := s.OpenState(); err != nil {
			return fmt.Errorf("loadtest: durable state: %w", err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		base = "http://" + l.Addr().String()
		serveErr := make(chan error, 1)
		go func() { serveErr <- s.Serve(l) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
			<-serveErr
		}()
	}

	// The key universe: structurally identical kernels whose constants
	// differ, so every key is a distinct cache entry with near-equal
	// compute cost.
	bodies := make([]string, *keys)
	for i := range bodies {
		src := fmt.Sprintf(`
int a[512];
int main() {
	int i; int s = %d;
	for (i = 0; i < 60000; i++) { s = s + a[(i * %d) & 511]; }
	print_int(s);
	return 0;
}`, i+1, 3+2*(i%5))
		bodies[i] = fmt.Sprintf(`{"source": %q}`, src)
	}
	url := base + "/v1/" + *endpoint

	var interval time.Duration
	if *rps > 0 {
		interval = time.Duration(float64(*workers) * float64(time.Second) / *rps)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	perWorker := make([][]ltSample, *workers)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			var zipf *rand.Zipf
			if *skew != 0 && *keys > 1 {
				zipf = rand.NewZipf(rng, *skew, 1, uint64(*keys-1))
			}
			for time.Now().Before(deadline) {
				var k int
				if zipf != nil {
					k = int(zipf.Uint64())
				} else {
					k = rng.Intn(*keys)
				}
				start := time.Now()
				resp, err := client.Post(url, "application/json", strings.NewReader(bodies[k]))
				if err != nil {
					perWorker[w] = append(perWorker[w], ltSample{latency: time.Since(start), status: 0})
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				perWorker[w] = append(perWorker[w], ltSample{
					latency: time.Since(start),
					status:  resp.StatusCode,
					outcome: resp.Header.Get("Delinq-Cache"),
				})
				if interval > 0 {
					if sleep := interval - time.Since(start); sleep > 0 {
						time.Sleep(sleep)
					}
				}
			}
		}(w)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)
	if elapsed < *duration {
		elapsed = *duration
	}

	var all []ltSample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	rep := summarize(all, elapsed)
	rep.Endpoint = *endpoint
	rep.Workers = *workers
	rep.TargetRPS = *rps
	rep.Keys = *keys
	rep.Skew = *skew
	rep.Seed = *seed
	rep.Isolate = *isolate
	rep.ServerMetrics = scrapeCacheMetrics(client, base)

	fmt.Printf("loadtest: %d requests in %.2fs (%.1f req/s), hit ratio %.1f%%, shed %d, errors %d\n",
		rep.Requests, rep.DurationSec, rep.ThroughputRPS, 100*rep.HitRatio, rep.Shed, rep.Errors)
	for _, bucket := range []string{"overall", "hit", "warm", "miss", "coalesced"} {
		if sum, ok := rep.Latency[bucket]; ok {
			fmt.Printf("  %-9s n=%-6d p50=%.3fms p99=%.3fms mean=%.3fms\n",
				bucket, sum.Count, sum.P50Ms, sum.P99Ms, sum.MeanMs)
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
		return nil
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", *out)
	return nil
}

// summarize folds raw samples into the report's aggregate fields.
func summarize(all []ltSample, elapsed time.Duration) *ltReport {
	rep := &ltReport{
		Schema:      "delinq-loadtest/v1",
		DurationSec: elapsed.Seconds(),
		Requests:    len(all),
		Latency:     map[string]ltSummary{},
	}
	if len(all) == 0 {
		return rep
	}
	rep.ThroughputRPS = float64(len(all)) / elapsed.Seconds()
	buckets := map[string][]time.Duration{}
	var hits, classified int
	for _, s := range all {
		switch {
		case s.status == http.StatusTooManyRequests:
			rep.Shed++
		case s.status != http.StatusOK:
			rep.Errors++
		}
		buckets["overall"] = append(buckets["overall"], s.latency)
		switch s.outcome {
		case "hit", "warm", "miss", "coalesced":
			buckets[s.outcome] = append(buckets[s.outcome], s.latency)
			classified++
			// A warm hit is a hit whose entry survived a restart; both
			// count toward the ratio the cache is proving.
			if s.outcome == "hit" || s.outcome == "warm" {
				hits++
			}
		}
	}
	if classified > 0 {
		rep.HitRatio = float64(hits) / float64(classified)
	}
	for name, lats := range buckets {
		rep.Latency[name] = digest(lats)
	}
	return rep
}

// digest computes count/p50/p99/mean over one latency bucket.
func digest(lats []time.Duration) ltSummary {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx]) / float64(time.Millisecond)
	}
	var total time.Duration
	for _, l := range lats {
		total += l
	}
	return ltSummary{
		Count:  len(lats),
		P50Ms:  pct(0.50),
		P99Ms:  pct(0.99),
		MeanMs: float64(total) / float64(len(lats)) / float64(time.Millisecond),
	}
}

// scrapeCacheMetrics pulls the daemon's cache and admission telemetry
// so the report can be cross-checked against the driven workload.
func scrapeCacheMetrics(client *http.Client, base string) map[string]int64 {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	out := map[string]int64{}
	for _, line := range strings.Split(string(blob), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if !strings.HasPrefix(name, "delinq_cache_") &&
			!strings.HasPrefix(name, "delinq_worker_") &&
			name != "delinq_requests_shed_total" &&
			name != "delinq_requests_analyze_total" &&
			name != "delinq_requests_run_total" {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
