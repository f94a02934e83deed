// Command delinqbench is the repository's benchmark. It builds nothing
// itself (run.sh builds it and the delinq CLI), drives one workload for
// a fixed time, checks every output it can, and prints one JSON result
// line last:
//
//	delinqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics a user of the
// workload sees. With --trace 1 it runs the workload's traffic briefly
// for the daemon's own counters, then replays the same request stream
// in process through each layer's public functions, timing every call
// as a span, and reports per-layer metrics. The program under test
// carries no tracing code.
//
// Workloads (all closed loop, two clients or workers at most):
//
//   - sweep: a cold `delinq table -j 2 all`; the simulator dominates.
//   - miss_static: distinct progen programs against an in-process
//     daemon; every request misses, so static analysis dominates.
//   - hot_warm: Zipf traffic over a daemon warm-restarted from its WAL,
//     plus a few fresh sources; the result cache and HTTP dominate.
//   - miss_isolated: distinct VM-heavy kernels against `serve -isolate`;
//     the only workload through the worker pool.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// run is one invocation's settings.
type run struct {
	seed    int64
	dur     time.Duration
	trace   bool
	scratch string // per-run directory under .bench_build, removed at exit
	ctx     context.Context
	client  *http.Client
}

// outcome is what a workload hands back for the result line.
type outcome struct {
	rep       report
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Println("  CHECK FAILED:", msg)
	o.problems = append(o.problems, msg)
}

var workloads = map[string]func(*run) (*outcome, error){
	"sweep":         sweep,
	"miss_static":   missStatic,
	"hot_warm":      hotWarm,
	"miss_isolated": missIsolated,
}

// endToEnd and perLayer name the metrics a run reports; they match
// BENCHMARK.json. Every run reports all of one list: a workload that
// does not exercise a layer reports 0 for it.
var (
	endToEnd = []string{"setup_s", "throughput_rps", "peak_rss_mb"}
	perLayer = []string{
		"minic.compile_ms", "asm.assemble_ms", "arm.lower_ms", "disasm.disassemble_ms",
		"pattern.analyze_ms", "pattern.loads", "classify.score_ms", "baseline.eval_ms",
		"vm.run_ms", "vm.insts", "vm.minsts_per_s", "cache.sim_ms", "cache.accesses", "cache.maccesses_per_s",
		"workerpool.encode_ms",
		"bench.build_misses", "bench.run_misses", "bench.memo_hit_ratio", "tables.train_ms", "tables.render_ms",
		"workerpool.execute_ms", "workerpool.pool_do_ms", "workerpool.ipc_ms", "workerpool.spawn_ms",
		"workerpool.spawns", "workerpool.recycles", "workerpool.reuse_ratio",
		"rescache.do_us", "rescache.hit_ratio", "rescache.evictions", "server.overhead_ms",
		"wal.replay_ms", "wal.entries", "wal.append_ms",
		"trace.overhead_pct", "trace.accounted_pct",
	}
)

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("delinqbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: sweep, miss_static, hot_warm or miss_isolated")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: delinqbench --workload <sweep|miss_static|hot_warm|miss_isolated> --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := main1(*workload, w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "delinqbench:", err)
		os.Exit(1)
	}
}

func main1(name string, w func(*run) (*outcome, error), seed int64, seconds int, trace bool) error {
	if _, err := os.Stat(delinqBin); err != nil {
		return fmt.Errorf("no delinq binary (build it with run.sh): %w", err)
	}
	scratch, err := os.MkdirTemp(filepath.Dir(delinqBin), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	r := &run{
		seed:    seed,
		dur:     time.Duration(seconds) * time.Second,
		trace:   trace,
		scratch: scratch,
		ctx:     context.Background(),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		},
	}
	fmt.Printf("delinqbench: workload=%s seed=%d seconds=%d trace=%t\n", name, seed, seconds, trace)
	o, err := w(r)
	if err != nil {
		return err
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	metrics := map[string]metric{}
	for _, m := range want {
		v, ok := o.rep[m]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", name, m)
		}
		if v.Unit != unitOf(m) {
			return fmt.Errorf("metric %s reported in %s, want %s", m, v.Unit, unitOf(m))
		}
		metrics[m] = v
	}
	if o.attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", name)
	}
	fmt.Printf("  fail_ratio %.6f (%d failed of %d attempted)\n",
		float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	res := result{Correct: len(o.problems) == 0 && o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if !res.Correct {
		return fmt.Errorf("output checks failed: %s", strings.Join(o.problems, "; "))
	}
	return nil
}

// unitOf is the unit a metric's name promises by its suffix.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_per_s", "M/s"}, {"_pct", "%"}, {"_ratio", "ratio"},
		{"_rps", "1/s"}, {"_mb", "MB"}, {"_s", "s"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

// zeroLayers reports 0 for every per-layer metric the workload does not
// set itself.
func zeroLayers(rep report) {
	for _, m := range perLayer {
		if _, ok := rep[m]; !ok {
			rep[m] = metric{Value: 0, Unit: unitOf(m)}
		}
	}
}

// spanPath is where a traced run writes its spans, one JSON object per
// line, next to the build products.
func spanPath(r *run, workload string) string {
	return filepath.Join(filepath.Dir(delinqBin), fmt.Sprintf("spans-%s-%d.jsonl", workload, r.seed))
}

// sortedKeys lists a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
