package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLILoadtestUsage: flag mistakes are usage errors (exit 2), never
// a half-started load run.
func TestCLILoadtestUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"loadtest", "stray-positional"},
		{"loadtest", "-workers", "0"},
		{"loadtest", "-duration", "0s"},
		{"loadtest", "-rps", "-1"},
		{"loadtest", "-keys", "0"},
		{"loadtest", "-skew", "0.5"}, // Zipf wants s > 1 (or 0 = uniform)
		{"loadtest", "-endpoint", "tables"},
	} {
		err := exec.Command(bin, args...).Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit 2", args, err)
		}
	}
}

// TestCLILoadtestSmoke drives a short closed-loop run against the
// in-process daemon and checks the report: schema, sane aggregates,
// and — the critical cross-check — the daemon's scraped cache counters
// agreeing EXACTLY with the outcomes the client observed, request for
// request.
func TestCLILoadtestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	out := filepath.Join(t.TempDir(), "bench.json")
	cmdOut, err := exec.Command(bin, "loadtest",
		"-workers", "4", "-duration", "700ms", "-keys", "3", "-seed", "7",
		"-o", out).CombinedOutput()
	if err != nil {
		t.Fatalf("loadtest: %v\n%s", err, cmdOut)
	}
	if !strings.Contains(string(cmdOut), "loadtest:") || !strings.Contains(string(cmdOut), "report written") {
		t.Errorf("summary missing from output:\n%s", cmdOut)
	}

	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep ltReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, blob)
	}
	if rep.Schema != "delinq-loadtest/v1" {
		t.Errorf("schema = %q, want delinq-loadtest/v1", rep.Schema)
	}
	if rep.Requests < 3 {
		t.Fatalf("requests = %d, want at least one per key", rep.Requests)
	}
	if rep.Errors != 0 || rep.Shed != 0 {
		t.Errorf("errors=%d shed=%d on an unloaded private daemon, want 0/0", rep.Errors, rep.Shed)
	}
	if rep.ThroughputRPS <= 0 {
		t.Errorf("throughput = %g, want > 0", rep.ThroughputRPS)
	}
	overall, ok := rep.Latency["overall"]
	if !ok || overall.Count != rep.Requests {
		t.Errorf("overall latency bucket = %+v, want count %d", overall, rep.Requests)
	}
	if overall.P50Ms <= 0 || overall.P99Ms < overall.P50Ms {
		t.Errorf("implausible percentiles: %+v", overall)
	}
	// 3 keys and hundreds of requests: all keys fill once, the rest hit.
	if miss := rep.Latency["miss"]; miss.Count != 3 {
		t.Errorf("miss count = %d, want 3 (one fill per key)", miss.Count)
	}
	if rep.HitRatio <= 0 {
		t.Error("hit ratio is zero on a repeating key set")
	}

	// The daemon's own telemetry must match the driven workload exactly.
	sm := rep.ServerMetrics
	if sm == nil {
		t.Fatal("report carries no server metrics")
	}
	for name, want := range map[string]int{
		"delinq_cache_hits_total":       rep.Latency["hit"].Count,
		"delinq_cache_misses_total":     rep.Latency["miss"].Count,
		"delinq_cache_coalesced_total":  rep.Latency["coalesced"].Count,
		"delinq_requests_analyze_total": rep.Requests,
		"delinq_requests_shed_total":    0,
	} {
		if got := sm[name]; got != int64(want) {
			t.Errorf("%s = %d, but the client observed %d", name, got, want)
		}
	}
	if sm["delinq_cache_entries"] != 3 {
		t.Errorf("delinq_cache_entries = %d, want 3", sm["delinq_cache_entries"])
	}
}
