package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/tables"
	"delinq/internal/vm"
)

// golden is the committed output of `delinq table all`.
const golden = "tables_output.txt"

// Exactly-once memo counts of a full sweep: 18 benchmarks at -O0 plus
// 11 training benchmarks at -O are built; 51 (benchmark, input,
// geometry bundle) combinations are simulated.
const (
	wantBuildMisses = 29
	wantRunMisses   = 51
)

var memoLine = regexp.MustCompile(`memo: builds hits=\d+ misses=(\d+) joined=\d+ errors=(\d+); runs hits=\d+ misses=(\d+) joined=\d+ errors=(\d+)`)

// checkMemo verifies the memo counter line `table -v` prints.
func checkMemo(o *outcome, stderr []byte) bool {
	m := memoLine.FindSubmatch(stderr)
	if m == nil {
		o.problem("no memo counter line in table -v output: %s", stderr)
		return false
	}
	n := func(i int) int { v, _ := strconv.Atoi(string(m[i])); return v }
	if n(1) != wantBuildMisses || n(3) != wantRunMisses || n(2) != 0 || n(4) != 0 {
		o.problem("memo counters: builds misses=%d errors=%d, runs misses=%d errors=%d; want %d/0, %d/0",
			n(1), n(2), n(3), n(4), wantBuildMisses, wantRunMisses)
		return false
	}
	return true
}

// sweepSetups is how many process launches the sweep's setup_s median
// is taken over.
const sweepSetups = 11

// minSweeps is the fewest sweeps a run times. One sweep's wall time
// varies by about ±10% from one sweep to the next on a shared two-core
// host, so the run reports the median of several.
const minSweeps = 4

// sweep runs cold `delinq table -j 2 -v all` processes back to back
// until the measuring time is used and at least minSweeps have run,
// checking each one's output against the golden file byte for byte.
func sweep(r *run) (*outcome, error) {
	want, err := os.ReadFile(golden)
	if err != nil {
		return nil, err
	}
	if r.trace {
		return sweepTraced(r, want)
	}
	o := &outcome{rep: report{}}

	// Set-up is the CLI's launch cost before it can start work: the
	// time a `delinq bench` process (which only lists the suite) takes
	// from exec to exit.
	var setups []float64
	for i := 0; i < sweepSetups; i++ {
		t := time.Now()
		if out, err := exec.Command(delinqBin, "bench").CombinedOutput(); err != nil {
			return nil, fmt.Errorf("delinq bench: %v: %s", err, out)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	var walls []float64
	var peak int64
	start := time.Now()
	for o.attempted < minSweeps || time.Since(start) < r.dur {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(delinqBin, "table", "-j", "2", "-v", "all")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t := time.Now()
		err := cmd.Run()
		wall := time.Since(t)
		o.attempted++
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > peak {
			peak = ru.Maxrss
		}
		ok := true
		if err != nil {
			o.problem("table all: %v: %s", err, stderr.Bytes())
			ok = false
		} else if !bytes.Equal(stdout.Bytes(), want) {
			o.problem("table all output differs from %s", golden)
			ok = false
		} else if !checkMemo(o, stderr.Bytes()) {
			ok = false
		}
		if !ok {
			o.failed++
			continue
		}
		walls = append(walls, wall.Seconds())
		fmt.Printf("  sweep %d: %.3f s\n", len(walls), wall.Seconds())
	}
	if len(walls) == 0 {
		return o, nil
	}
	// The caller issues one sweep at a time, so its throughput is the
	// inverse of a sweep's wall time.
	wall := median(walls)
	fmt.Printf("  wall_s %.4f s (median of n=%d sweeps; a percentile needs n>=20)\n", wall, len(walls))
	o.rep.set("setup_s", median(setups), "s")
	o.rep.set("throughput_rps", 1/wall, "1/s")
	o.rep.set("peak_rss_mb", float64(peak)/1024, "MB")
	return o, nil
}

// sweepTraced runs the sweep in process: tables.Preload with two
// workers, the training phase and the table renders, each timed as a
// span and the render checked against the golden file. It then replays
// every distinct build and simulation of the sweep serially through the
// layers' public functions for the per-layer split.
func sweepTraced(r *run, want []byte) (*outcome, error) {
	o := &outcome{rep: report{}, attempted: 1}
	tr := newTracer()
	var err error
	tr.do("tables.preload", func() { err = tables.Preload(r.ctx, 2, nil) })
	if err != nil {
		return nil, err
	}
	tr.do("tables.train", func() { _, err = tables.TrainedReport() })
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	tr.do("tables.render", func() {
		for _, id := range tables.IDs() {
			var t *tables.Table
			if t, err = tables.ByID(id); err != nil {
				return
			}
			if err = t.Render(&out); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(out.Bytes(), want) {
		o.problem("in-process render differs from %s", golden)
		o.failed++
	}
	if degs := tables.Degradations(); len(degs) > 0 {
		o.problem("%d benchmarks degraded", len(degs))
	}
	bs, rs := bench.CacheStats()
	if bs.Misses != wantBuildMisses || rs.Misses != wantRunMisses {
		o.problem("memo misses builds=%d runs=%d, want %d and %d", bs.Misses, rs.Misses, wantBuildMisses, wantRunMisses)
	}
	self := tr.selfTimes()
	fmt.Printf("  in-process sweep: preload %.3f s (2 workers), train %.3f s, render %.3f s\n",
		self["tables.preload"].Seconds(), self["tables.train"].Seconds(), self["tables.render"].Seconds())

	rep := o.rep
	rep.set("bench.build_misses", float64(bs.Misses), "count")
	rep.set("bench.run_misses", float64(rs.Misses), "count")
	calls := float64(bs.Hits + bs.Misses + bs.Joined + rs.Hits + rs.Misses + rs.Joined)
	rep.set("bench.memo_hit_ratio", ratio(float64(bs.Hits+bs.Joined+rs.Hits+rs.Joined), calls), "ratio")
	rep.set("tables.train_ms", ms(self["tables.train"]), "ms")
	rep.set("tables.render_ms", ms(self["tables.render"]), "ms")

	// Layer split: every distinct build, then every distinct run, one
	// request id each. Every fourth run is also simulated the way
	// bench.SimulateCtx does it (caches attached to the VM, no spans):
	// the untraced reference for the tracing overhead.
	lt := newTracer()
	lc := &layerCounts{}
	units := 0
	builds := map[string]*replayBuild{}
	var tracedRef, untraced time.Duration
	for i, cb := range tables.AllCombos() {
		key := fmt.Sprintf("%s|%t", cb.Bench.Name, cb.Optimize)
		bd := builds[key]
		if bd == nil {
			lt.req = units
			units++
			root := lt.begin("bench.build")
			bd, err = lt.replayBuild(r.ctx, cb.Bench, cb.Optimize, lc)
			lt.end(root)
			if err != nil {
				return nil, err
			}
			builds[key] = bd
		}
		input := cb.Bench.Input1
		if cb.Input2 {
			input = cb.Bench.Input2
		}
		lt.req = units
		units++
		root := lt.begin("bench.run")
		sim, err := lt.simulate(r.ctx, bd.img, input, cb.Geoms, 3e8, lc)
		if err == nil {
			lt.score(bd.result, sim)
			lt.evalBaselines(bd.result, sim)
		}
		lt.end(root)
		if err != nil {
			return nil, err
		}
		if i%4 == 0 {
			sp := lt.spans[root]
			tracedRef += time.Duration(sp.End - sp.Start)
			untraced += timeUntracedSim(r, bd, input, cb.Geoms)
		}
	}
	// Layer times of a sweep are totals over the whole sweep.
	layerMetrics(rep, lt, lc, 1)
	rep.set("trace.overhead_pct", 100*(ratio(float64(tracedRef), float64(untraced))-1), "%")
	accountingRoots(rep, lt, []string{"bench.build", "bench.run"}, pipelineLayers)
	replayed := (lt.rootTime("bench.build") + lt.rootTime("bench.run")).Seconds()
	fmt.Printf("  serial replay of %d builds and runs: %.3f s of layer work, %.3f s per worker of 2, vs %.3f s in-process preload\n",
		units, replayed, replayed/2, self["tables.preload"].Seconds())
	if err := lt.write(spanPath(r, "sweep")); err != nil {
		return nil, err
	}
	zeroLayers(rep)
	return o, nil
}

// timeUntracedSim times one simulation run as bench.SimulateCtx runs it.
func timeUntracedSim(r *run, bd *replayBuild, input []int32, geoms []cache.Config) time.Duration {
	caches := make([]*cache.Cache, len(geoms))
	for i, g := range geoms {
		caches[i], _ = cache.New(g)
	}
	t := time.Now()
	vm.RunContext(r.ctx, bd.img, vm.Options{Args: input, Caches: caches, MaxInsts: 3e8})
	return time.Since(t)
}
