package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"delinq/internal/rescache"
	"delinq/internal/wal"
	"delinq/internal/workerpool"
)

// serveBoots is how many daemon launches a setup_s median is taken over.
const serveBoots = 11

// missCacheFlags give the miss workloads a result cache small enough
// that a run's inserts also evict.
var missCacheFlags = []string{"-cache-entries", "256"}

// A seeded one-in-sampleEvery share of responses, at most maxSamples,
// is checked byte for byte against an in-process workerpool.Execute of
// the same job once the daemon has stopped.
const (
	sampleEvery = 16
	maxSamples  = 48
)

// workerMem is the daemon's default per-worker memory ceiling, used for
// the pools the traced replay starts itself.
const workerMem = 512 << 20

func sampled(tag string, seed int64, k int) bool {
	return streamRNG("sample-"+tag, seed, k).Intn(sampleEvery) == 0
}

// phase is one daemon's life: its boots, the traffic it served and
// what it reported about itself before it stopped.
type phase struct {
	lr      *loadResult
	setup   float64 // median launch-to-ready seconds
	rss     float64 // daemon VmHWM, MiB
	metrics map[string]int64
}

// servePhase boots the daemon serveBoots times (keeping the last), runs
// the closed loop against it for dur, scrapes /metrics and its peak RSS,
// and stops it.
func servePhase(r *run, dur time.Duration, flags []string, gen func(int) request, inspect func(request, *response)) (*phase, error) {
	d, setup, err := bootMedian(r.client, serveBoots, flags...)
	if err != nil {
		return nil, err
	}
	lr := drive(r.client, d.base, dur, gen, inspect)
	m, merr := d.metrics()
	rss, rerr := d.peakRSSMB()
	if err := d.stop(); err != nil {
		return nil, err
	}
	if merr != nil {
		return nil, merr
	}
	if rerr != nil {
		return nil, rerr
	}
	return &phase{lr: lr, setup: setup, rss: rss, metrics: m}, nil
}

// tally counts attempts and failures: a request fails when it was not
// answered 200 or its body failed a check.
func (o *outcome) tally(lr *loadResult) {
	o.attempted += len(lr.responses)
	for i := range lr.responses {
		if !lr.responses[i].ok() {
			o.failed++
		}
	}
}

// crossCheck compares the client's Delinq-Cache verdict counts with the
// daemon's delinq_cache_* counters; they must agree exactly.
func crossCheck(o *outcome, ph *phase) {
	v := ph.lr.verdicts()
	m := ph.metrics
	for _, c := range []struct {
		what           string
		client, server int64
	}{
		{"cache hits", int64(v["hit"] + v["warm"]), m["delinq_cache_hits_total"]},
		{"warm hits", int64(v["warm"]), m["delinq_cache_warm_hits_total"]},
		{"cache misses", int64(v["miss"]), m["delinq_cache_misses_total"]},
		{"coalesced", int64(v["coalesced"]), m["delinq_cache_coalesced_total"]},
	} {
		if c.client != c.server {
			o.problem("%s: client saw %d, /metrics says %d", c.what, c.client, c.server)
		}
	}
	fmt.Printf("  cross-check: client verdicts %v against /metrics\n", v)
}

// workerCheck holds the worker pool to its books: one worker request
// per cache miss, and every spawned worker accounted for.
func workerCheck(o *outcome, m map[string]int64) {
	if m["delinq_worker_requests_total"] != m["delinq_cache_misses_total"] {
		o.problem("worker requests %d != cache misses %d",
			m["delinq_worker_requests_total"], m["delinq_cache_misses_total"])
	}
	spawns := m["delinq_worker_spawns_total"]
	rest := m["delinq_worker_deaths_total"] + m["delinq_worker_recycles_total"] +
		m["delinq_worker_active"] + m["delinq_worker_idle"]
	if spawns != rest {
		o.problem("worker spawns %d != deaths+recycles+active+idle %d", spawns, rest)
	}
}

// checkSamples re-runs every kept response's job in process and
// compares bodies.
func checkSamples(r *run, o *outcome, lr *loadResult, gen func(int) request) {
	n := 0
	for i := range lr.responses {
		resp := &lr.responses[i]
		if resp.body == nil || resp.status != http.StatusOK || n == maxSamples {
			continue
		}
		n++
		want := workerpool.Execute(r.ctx, gen(resp.k).job)
		if want.Status != http.StatusOK || !bytes.Equal(want.Body, resp.body) {
			resp.wrong = true
			o.problem("request %d: daemon body differs from in-process workerpool.Execute", resp.k)
		}
	}
	fmt.Printf("  checked %d sampled bodies against workerpool.Execute\n", n)
}

// reportEndToEnd sets the end-to-end metrics of a daemon phase and
// prints its latency distribution per verdict.
func reportEndToEnd(o *outcome, ph *phase) {
	lr := ph.lr
	printLatency("all", lr.latencies(""))
	v := lr.verdicts()
	for _, name := range sortedKeys(v) {
		printLatency(name, lr.latencies(name))
	}
	o.rep.set("setup_s", ph.setup, "s")
	o.rep.set("throughput_rps", float64(len(lr.responses))/lr.elapsed.Seconds(), "1/s")
	o.rep.set("peak_rss_mb", ph.rss, "MB")
}

// cacheCounts reports the result cache's counters from /metrics.
func cacheCounts(rep report, m map[string]int64) {
	lookups := m["delinq_cache_hits_total"] + m["delinq_cache_misses_total"] + m["delinq_cache_coalesced_total"]
	rep.set("rescache.hit_ratio", ratio(float64(m["delinq_cache_hits_total"]), float64(lookups)), "ratio")
	rep.set("rescache.evictions", float64(m["delinq_cache_evicted_size_total"]), "count")
}

// p50Ms is the median of some durations, in milliseconds.
func p50Ms(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = ms(d)
	}
	return median(vals)
}

// clientLatencies returns the latencies of requests 0..n-1.
func clientLatencies(lr *loadResult, n int) []time.Duration {
	var out []time.Duration
	for _, resp := range lr.responses {
		if resp.k < n {
			out = append(out, resp.latency)
		}
	}
	return out
}

// A traced replay takes half the run, and at least minReplay requests.
const minReplay = 20

func missStatic(r *run) (*outcome, error) {
	return missWorkload(r, "miss_static", missCacheFlags, missStaticRequest, false)
}

func missIsolated(r *run) (*outcome, error) {
	flags := append([]string{"-isolate", "-workers", strconv.Itoa(clients)}, missCacheFlags...)
	return missWorkload(r, "miss_isolated", flags, missIsolatedRequest, true)
}

// missWorkload drives an all-miss request stream at a daemon. Traced,
// it serves half the time for the daemon's counters, then replays the
// served requests in process, layer by layer.
func missWorkload(r *run, name string, flags []string, gen func(int64, int) request, isolated bool) (*outcome, error) {
	o := &outcome{rep: report{}}
	g := func(k int) request { return gen(r.seed, k) }
	dur := r.dur
	if r.trace {
		dur /= 2
	}
	ph, err := servePhase(r, dur, flags, g, func(req request, resp *response) {
		if !sampled(name, r.seed, resp.k) {
			resp.body = nil
		}
	})
	if err != nil {
		return nil, err
	}
	for _, resp := range ph.lr.responses {
		if resp.verdict != "miss" {
			o.problem("request %d answered %q; every request of %s must miss", resp.k, resp.verdict, name)
			break
		}
	}
	crossCheck(o, ph)
	if isolated {
		workerCheck(o, ph.metrics)
	}
	checkSamples(r, o, ph.lr, g)
	o.tally(ph.lr)
	if !r.trace {
		reportEndToEnd(o, ph)
		return o, nil
	}

	rep := o.rep
	cacheCounts(rep, ph.metrics)
	tr := newTracer()
	lc := &layerCounts{}
	var pool *workerpool.Pool
	if isolated {
		pool = replayPool()
		defer pool.Close()
		if _, err := pool.Do(r.ctx, tinyJob); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	n := 0
	for ; n < len(ph.lr.responses) && (n < minReplay || time.Since(start) < r.dur/2); n++ {
		req := g(n)
		tr.req = n
		var want *workerpool.JobResult
		var got []byte
		var err error
		execute := func() { tr.do("workerpool.execute", func() { want = workerpool.Execute(r.ctx, req.job) }) }
		traced := func() {
			root := tr.begin("request")
			got, err = tr.analyzeSource(r.ctx, req.job, lc)
			tr.end(root)
		}
		// Alternate which runs first, so neither gets the warmer caches.
		if n%2 == 0 {
			execute()
			traced()
		} else {
			traced()
			execute()
		}
		if err != nil {
			return nil, fmt.Errorf("traced replay of request %d: %w", n, err)
		}
		if !bytes.Equal(got, want.Body) {
			o.problem("request %d: traced replay diverged from workerpool.Execute:\n got %s\nwant %s", n, got, want.Body)
		}
		if pool != nil {
			var res *workerpool.JobResult
			tr.do("workerpool.pool_do", func() { res, err = pool.Do(r.ctx, req.job) })
			if err != nil || !bytes.Equal(res.Body, want.Body) {
				o.problem("request %d: pool.Do differs from workerpool.Execute (%v)", n, err)
			}
		}
	}
	layerMetrics(rep, tr, lc, n)
	execute := ms(tr.rootTime("workerpool.execute")) / float64(n)
	rep.set("workerpool.execute_ms", execute, "ms")
	rep.set("trace.overhead_pct", 100*(ratio(float64(tr.rootTime("request")), float64(tr.rootTime("workerpool.execute")))-1), "%")
	accountingRoots(rep, tr, []string{"request"}, pipelineLayers)
	// The daemon's own cost of the same work is the fill it runs: Execute
	// in process, or a pool round trip when isolating.
	fill := "workerpool.execute"
	if isolated {
		fill = "workerpool.pool_do"
	}
	fillP50 := p50Ms(tr.rootDurations(fill))
	clientP50 := p50Ms(clientLatencies(ph.lr, n))
	rep.set("server.overhead_ms", clientP50-fillP50, "ms")
	fmt.Printf("  replayed %d requests: client p50 %.3f ms, %s p50 %.3f ms, Execute p50 %.3f ms, traced request p50 %.3f ms\n",
		n, clientP50, fill, fillP50, p50Ms(tr.rootDurations("workerpool.execute")), p50Ms(tr.rootDurations("request")))
	if isolated {
		poolDo := ms(tr.rootTime("workerpool.pool_do")) / float64(n)
		rep.set("workerpool.pool_do_ms", poolDo, "ms")
		rep.set("workerpool.ipc_ms", poolDo-execute, "ms")
		spawn, err := measureSpawn(r)
		if err != nil {
			return nil, err
		}
		rep.set("workerpool.spawn_ms", spawn, "ms")
		m := ph.metrics
		rep.set("workerpool.spawns", float64(m["delinq_worker_spawns_total"]), "count")
		rep.set("workerpool.recycles", float64(m["delinq_worker_recycles_total"]), "count")
		reqs := float64(m["delinq_worker_requests_total"])
		rep.set("workerpool.reuse_ratio", ratio(reqs-float64(m["delinq_worker_spawns_total"]), reqs), "ratio")
	}
	if err := tr.write(spanPath(r, name)); err != nil {
		return nil, err
	}
	zeroLayers(rep)
	return o, nil
}

// tinyJob is a near-empty analyze job: the cost of a pool round trip
// with almost no pipeline behind it.
var tinyJob = workerpool.Job{Kind: workerpool.JobAnalyze, Source: "int main() { return 0; }"}

// replayPool is a one-worker pool for the traced replay. It never
// recycles, so no worker retires in the background after Close.
func replayPool() *workerpool.Pool {
	return workerpool.New(workerpool.Config{
		Workers:     1,
		MaxRequests: -1,
		Command:     []string{delinqBin, "worker", "-mem", strconv.Itoa(workerMem)},
	})
}

// measureSpawn estimates what a cold worker adds to a request: a fresh
// pool's first tiny job minus its second, median of three pools.
func measureSpawn(r *run) (float64, error) {
	var diffs []float64
	for i := 0; i < 3; i++ {
		p := replayPool()
		t := time.Now()
		_, err := p.Do(r.ctx, tinyJob)
		cold := time.Since(t)
		t = time.Now()
		if err == nil {
			_, err = p.Do(r.ctx, tinyJob)
		}
		warm := time.Since(t)
		p.Close()
		if err != nil {
			return 0, err
		}
		diffs = append(diffs, ms(cold-warm))
	}
	return median(diffs), nil
}

// walFile is the daemon's log name inside its -state-dir.
const walFile = "rescache.wal"

// prepareWarm fills every hot_warm key once through a daemon journaling
// to stateDir, stops it, and returns the bodies it answered.
func prepareWarm(r *run, stateDir string) ([][]byte, error) {
	d, _, err := startDaemon(r.client, "-state-dir", stateDir)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, warmKeys)
	for i := range bodies {
		req := warmKeyRequest(r.seed, i)
		resp, err := r.client.Post(d.base+"/v1/analyze", "application/json", bytes.NewReader(req.body))
		if err != nil {
			d.kill()
			return nil, err
		}
		bodies[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			d.kill()
			return nil, fmt.Errorf("preparing key %d: status %d: %v %s", i, resp.StatusCode, err, bodies[i])
		}
	}
	return bodies, d.stop()
}

// hotWarm restarts a daemon from a WAL of warmKeys entries and drives
// Zipf traffic over them plus a few fresh sources. Every answer for a
// replayed key must equal the body served before the restart.
func hotWarm(r *run) (*outcome, error) {
	o := &outcome{rep: report{}}
	stateDir := filepath.Join(r.scratch, "state")
	prep, err := prepareWarm(r, stateDir)
	if err != nil {
		return nil, err
	}
	walCopy := filepath.Join(r.scratch, "prepared.wal")
	if err := copyFile(filepath.Join(stateDir, walFile), walCopy); err != nil {
		return nil, err
	}
	g := func(k int) request { return hotWarmRequest(r.seed, k) }
	dur := r.dur
	if r.trace {
		dur /= 2
	}
	ph, err := servePhase(r, dur, []string{"-state-dir", stateDir}, g, func(req request, resp *response) {
		if req.key >= 0 {
			resp.wrong = resp.status == http.StatusOK && !bytes.Equal(resp.body, prep[req.key])
			resp.body = nil
		} else if !sampled("hot_warm", r.seed, resp.k) {
			resp.body = nil
		}
	})
	if err != nil {
		return nil, err
	}
	for _, resp := range ph.lr.responses {
		if resp.wrong {
			o.problem("request %d: body differs from the one served before the restart", resp.k)
			break
		}
	}
	crossCheck(o, ph)
	checkSamples(r, o, ph.lr, g)
	o.tally(ph.lr)
	if !r.trace {
		reportEndToEnd(o, ph)
		return o, nil
	}

	rep := o.rep
	cacheCounts(rep, ph.metrics)
	tr := newTracer()
	var store *wal.Store
	var entries []wal.Entry
	tr.do("wal.open", func() { store, entries, _, err = wal.Open(walCopy, wal.Options{Name: "bench"}) })
	if err != nil {
		return nil, err
	}
	defer store.Close()
	rep.set("wal.replay_ms", ms(tr.rootTime("wal.open")), "ms")
	rep.set("wal.entries", float64(len(entries)), "count")

	// Two caches seeded alike take the same stream: one inside spans, one
	// without, alternating which goes first. The tracing overhead is the
	// difference on hits; a fill's fsync varies far more than its spans
	// cost.
	plainStore, _, _, err := wal.Open(filepath.Join(r.scratch, "untraced.wal"), wal.Options{Name: "bench"})
	if err != nil {
		return nil, err
	}
	defer plainStore.Close()
	tracedCache, plainCache := newWarmCache(r.seed, prep), newWarmCache(r.seed, prep)
	var tracedHits, plainHits time.Duration
	start := time.Now()
	n := 0
	for ; n < len(ph.lr.responses) && (n < minReplay || time.Since(start) < r.dur/2); n++ {
		req := g(n)
		key := string(req.body)
		tr.req = n
		var body []byte
		var outcome rescache.Outcome
		var root int
		var plainTime time.Duration
		traced := func() {
			root = tr.begin("request")
			id := tr.begin("rescache.do")
			body, outcome, err = tracedCache.Do(r.ctx, key, func() ([]byte, bool, error) {
				var res *workerpool.JobResult
				tr.do("workerpool.execute", func() { res = workerpool.Execute(r.ctx, req.job) })
				var aerr error
				tr.do("wal.append", func() { aerr = store.Append(key, res.Body) })
				return res.Body, res.Status == http.StatusOK, aerr
			})
			tr.end(id)
			tr.end(root)
		}
		plain := func() {
			t := time.Now()
			plainCache.Do(r.ctx, key, func() ([]byte, bool, error) {
				res := workerpool.Execute(r.ctx, req.job)
				return res.Body, res.Status == http.StatusOK, plainStore.Append(key, res.Body)
			})
			plainTime = time.Since(t)
		}
		if n%2 == 0 {
			traced()
			plain()
		} else {
			plain()
			traced()
		}
		if err != nil {
			return nil, fmt.Errorf("replay of request %d: %w", n, err)
		}
		if outcome != rescache.OutcomeMiss {
			tracedHits += time.Duration(tr.spans[root].End - tr.spans[root].Start)
			plainHits += plainTime
		}
		if req.key >= 0 && !bytes.Equal(body, prep[req.key]) {
			o.problem("replayed request %d: body differs from the prepared one", n)
		}
	}
	self := tr.selfTimes()
	fills := float64(tr.count("wal.append"))
	rep.set("rescache.do_us", ratio(float64(self["rescache.do"].Nanoseconds())/1e3, float64(n)), "us")
	rep.set("workerpool.execute_ms", ratio(ms(self["workerpool.execute"]), fills), "ms")
	rep.set("wal.append_ms", ratio(ms(self["wal.append"]), fills), "ms")
	rep.set("trace.overhead_pct", 100*(ratio(float64(tracedHits), float64(plainHits))-1), "%")
	accountingRoots(rep, tr, []string{"request"}, []string{"rescache.do", "workerpool.execute", "wal.append"})
	clientP50 := p50Ms(clientLatencies(ph.lr, n))
	inProc := p50Ms(tr.rootDurations("request"))
	rep.set("server.overhead_ms", clientP50-inProc, "ms")
	fmt.Printf("  replayed %d requests (%.0f fills): client p50 %.4f ms, in-process p50 %.4f ms\n", n, fills, clientP50, inProc)
	if err := tr.write(spanPath(r, "hot_warm")); err != nil {
		return nil, err
	}
	zeroLayers(rep)
	return o, nil
}

// newWarmCache is an in-process result cache with the daemon's default
// caps, seeded with the prepared bodies as a warm restart seeds it.
func newWarmCache(seed int64, prep [][]byte) *rescache.Cache[[]byte] {
	c := rescache.New(rescache.Config{MaxEntries: 1024, MaxBytes: 64 << 20}, func(b []byte) int { return len(b) + 96 })
	for i, body := range prep {
		c.Seed(string(warmKeyRequest(seed, i).body), body)
	}
	return c
}

func copyFile(from, to string) error {
	blob, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, blob, 0o644)
}
