package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"delinq/internal/core"
)

var generators = map[string]func(int64, int) request{
	"miss_static":   missStaticRequest,
	"miss_isolated": missIsolatedRequest,
	"hot_warm":      hotWarmRequest,
}

func stream(gen func(int64, int) request, seed int64, n int) [][]byte {
	out := make([][]byte, n)
	for k := range out {
		out[k] = gen(seed, k).body
	}
	return out
}

func TestStreamsFollowTheSeed(t *testing.T) {
	for name, gen := range generators {
		a, b, c := stream(gen, 1, 200), stream(gen, 1, 200), stream(gen, 2, 200)
		same := true
		for k := range a {
			if !bytes.Equal(a[k], b[k]) {
				t.Fatalf("%s: request %d differs between two streams of seed 1", name, k)
			}
			same = same && bytes.Equal(a[k], c[k])
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 give the same stream", name)
		}
	}
}

func TestMissStreamsNeverRepeat(t *testing.T) {
	for _, name := range []string{"miss_static", "miss_isolated"} {
		seen := map[string]int{}
		for k, body := range stream(generators[name], 1, 2000) {
			if prev, ok := seen[string(body)]; ok {
				t.Fatalf("%s: requests %d and %d are identical", name, prev, k)
			}
			seen[string(body)] = k
		}
	}
}

// Every generated program must compile on both ISAs, so no request of a
// miss workload is a 400 that skips the pipeline.
func TestRequestsCompileOnBothISAs(t *testing.T) {
	var reqs []request
	for seed := int64(1); seed <= 3; seed++ {
		for k := 0; k < 40; k++ {
			reqs = append(reqs, missStaticRequest(seed, k), missIsolatedRequest(seed, k))
		}
		for i := 0; i < warmKeys; i++ {
			reqs = append(reqs, warmKeyRequest(seed, i))
		}
	}
	for _, req := range reqs {
		for _, isaName := range []string{"mips", "arm"} {
			if _, err := core.BuildSourceISA(req.job.Source, req.job.Optimize, isaName); err != nil {
				t.Fatalf("%s build failed: %v\n%s", isaName, err, req.job.Source)
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.50, true}, {19, 0.50, false},
		{1, 0.50, false}, {0, 0.50, false},
	} {
		lats := make([]time.Duration, c.n)
		for i := range lats {
			lats[i] = time.Duration(i) * time.Millisecond
		}
		if _, ok := percentile(lats, c.p); ok != c.ok {
			t.Errorf("n=%d p=%g: reported=%t, want %t", c.n, c.p, ok, c.ok)
		}
	}
}

// BENCHMARK.json, at the repository root, must name exactly the metrics
// the benchmark reports, in the units it reports them.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list []string
		spec []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.list) != len(c.spec) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.spec), len(c.list))
		}
		for i, m := range c.spec {
			if m.Name != c.list[i] || m.Unit != unitOf(m.Name) {
				t.Errorf("BENCHMARK.json metric %d is %s in %s; the benchmark reports %s in %s",
					i, m.Name, m.Unit, c.list[i], unitOf(c.list[i]))
			}
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "vm.run", Start: 10, End: 60, Parent: 0},
		{Name: "cache.sim", Start: 20, End: 30, Parent: 1},
		{Name: "cache.sim", Start: 60, End: 70, Parent: 0},
	}}
	self := tr.selfTimes()
	for name, want := range map[string]time.Duration{"request": 40, "vm.run": 40, "cache.sim": 20} {
		if self[name] != want {
			t.Errorf("self(%s) = %d, want %d", name, self[name], want)
		}
	}
}
