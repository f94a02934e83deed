package main

import (
	"context"
	"encoding/json"
	"fmt"

	"delinq/internal/asm"
	"delinq/internal/baseline"
	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/core"
	"delinq/internal/disasm"
	"delinq/internal/metrics"
	"delinq/internal/minic"
	"delinq/internal/obj"
	"delinq/internal/pattern"
	"delinq/internal/vm"
	"delinq/internal/workerpool"
)

// layerCounts accumulates the work counts the traced replays observe.
type layerCounts struct {
	insts    int64 // VM instructions executed
	accesses int64 // cache.Access calls (data accesses × geometries)
	loads    int64 // loads found by pattern analysis
	analyses int   // pattern analyses run
}

// simChunk is how many data accesses the traced simulation buffers
// before replaying them through the caches: large enough that a span
// per chunk costs nothing measurable, small enough to stay in cache.
const simChunk = 1 << 14

type access struct {
	pc, addr uint32
	store    bool
}

// build is the traced compile chain: minic.Compile, asm.Assemble and
// core.LowerImage, as core.BuildSourceISA runs them.
func (t *tracer) build(src string, optimize bool, isaName string) (*obj.Image, error) {
	var asmText string
	var img *obj.Image
	var err error
	t.do("minic.compile", func() { asmText, err = minic.Compile(src, minic.Options{Optimize: optimize}) })
	if err != nil {
		return nil, err
	}
	t.do("asm.assemble", func() { img, err = asm.Assemble(asmText) })
	if err != nil {
		return nil, err
	}
	t.do("arm.lower", func() { img, err = core.LowerImage(img, isaName) })
	return img, err
}

// simulate runs the VM with no cache attached, buffering every data
// access, and replays the buffer through the cache models in chunks.
// The per-load miss counts it rebuilds are exactly those vm.RunContext
// computes with the caches attached (same accesses, same order), so the
// result can stand in for core.SimulateCtx's.
func (t *tracer) simulate(ctx context.Context, img *obj.Image, args []int32, geoms []cache.Config, maxInsts int64, lc *layerCounts) (*core.Simulation, error) {
	caches := make([]*cache.Cache, len(geoms))
	misses := make([][]int64, len(geoms))
	for i, g := range geoms {
		c, err := cache.New(g)
		if err != nil {
			return nil, err
		}
		caches[i] = c
		misses[i] = make([]int64, len(img.Text))
	}
	buf := make([]access, 0, simChunk)
	flush := func() {
		id := t.begin("cache.sim")
		for _, a := range buf {
			idx := (a.pc - obj.TextBase) / 4
			for c, ch := range caches {
				if !ch.Access(a.addr, a.store) && !a.store {
					misses[c][idx]++
				}
			}
		}
		t.end(id)
		lc.accesses += int64(len(buf) * len(caches))
		buf = buf[:0]
	}
	var res *vm.Result
	var err error
	t.do("vm.run", func() {
		res, err = vm.RunContext(ctx, img, vm.Options{
			Args:          args,
			MaxInsts:      maxInsts,
			CaptureOutput: true,
			OnAccess: func(pc, addr uint32, store bool) {
				buf = append(buf, access{pc, addr, store})
				if len(buf) == simChunk {
					flush()
				}
			},
		})
	})
	if err != nil {
		return nil, err
	}
	flush()
	res.LoadMisses = misses
	lc.insts += res.Insts
	return &core.Simulation{Result: res, Caches: caches}, nil
}

// analyze is the traced static half: disasm.Disassemble and
// pattern.AnalyzeProgramCtx, configured as core.IdentifyImageCtx
// configures them for a profiled run.
func (t *tracer) analyze(ctx context.Context, img *obj.Image, inter bool, lc *layerCounts) (*core.Result, error) {
	var prog *disasm.Program
	var loads []*pattern.Load
	var err error
	t.do("disasm.disassemble", func() { prog, err = disasm.Disassemble(img) })
	if err != nil {
		return nil, err
	}
	cfg := classify.DefaultConfig()
	cfg.Pattern.Interprocedural = inter
	t.do("pattern.analyze", func() { loads, err = pattern.AnalyzeProgramCtx(ctx, prog, cfg.Pattern) })
	if err != nil {
		return nil, err
	}
	lc.loads += int64(len(loads))
	lc.analyses++
	return &core.Result{Image: img, Prog: prog, Loads: loads, Config: cfg}, nil
}

// score is the traced classify.Score of res's loads under a profile.
func (t *tracer) score(res *core.Result, sim *core.Simulation) {
	t.do("classify.score", func() { res.Scored = classify.Score(res.Loads, sim, res.Config) })
}

// evalBaselines is the traced evaluation against the simulation: the
// heuristic's selection plus baseline.OKN and baseline.BDH, each scored
// by metrics.Evaluate on the baseline cache.
func (t *tracer) evalBaselines(res *core.Result, sim *core.Simulation) (ev, okn, bdh metrics.SetEval) {
	t.do("baseline.eval", func() {
		stats := sim.LoadStats(res.Loads, 0)
		ev = metrics.Evaluate(res.DeltaSet(), stats)
		okn = metrics.Evaluate(baseline.OKN(res.Loads), stats)
		bdh = metrics.Evaluate(baseline.BDH(res.Prog, res.Loads), stats)
	})
	return ev, okn, bdh
}

// analyzeSource replays one ad-hoc analyze job layer by layer and
// renders the response body the daemon would send. Callers compare it
// with workerpool.Execute's body to prove the replay is faithful.
func (t *tracer) analyzeSource(ctx context.Context, job workerpool.Job, lc *layerCounts) ([]byte, error) {
	img, err := t.build(job.Source, job.Optimize, job.ISA)
	if err != nil {
		return nil, err
	}
	sim, err := t.simulate(ctx, img, job.Args, []cache.Config{cache.Baseline}, 0, lc)
	if err != nil {
		return nil, err
	}
	res, err := t.analyze(ctx, img, job.Inter, lc)
	if err != nil {
		return nil, err
	}
	t.score(res, sim)
	ev, okn, bdh := t.evalBaselines(res, sim)
	var body []byte
	t.do("encode", func() {
		resp := &workerpool.AnalyzeResponse{
			ISA:        job.ISA,
			Optimize:   job.Optimize,
			Inter:      job.Inter,
			Heuristic:  setEval(ev),
			OKN:        setEval(okn),
			BDH:        setEval(bdh),
			Delinquent: []string{},
		}
		for _, sc := range res.Delinquent() {
			resp.Delinquent = append(resp.Delinquent, core.Describe(sc))
		}
		body, err = json.Marshal(resp)
		body = append(body, '\n')
	})
	return body, err
}

func setEval(ev metrics.SetEval) workerpool.SetEval {
	return workerpool.SetEval{Selected: ev.Selected, Loads: ev.Loads, Pi: ev.Pi, Rho: ev.Rho}
}

// pipelineLayers are the spans on the blocking path of one analyze
// miss, in pipeline order.
var pipelineLayers = []string{
	"minic.compile", "asm.assemble", "arm.lower", "vm.run", "cache.sim",
	"disasm.disassemble", "pattern.analyze", "classify.score", "baseline.eval", "encode",
}

// layerMetrics turns a tracer's self times into the per-layer metrics
// of the pipeline layers: mean self time per unit (a request, or a
// sweep build or run), plus the VM and cache rates.
func layerMetrics(rep report, t *tracer, lc *layerCounts, units int) {
	self := t.selfTimes()
	per := func(layer string) float64 { return ratio(ms(self[layer]), float64(units)) }
	rep.set("minic.compile_ms", per("minic.compile"), "ms")
	rep.set("asm.assemble_ms", per("asm.assemble"), "ms")
	rep.set("arm.lower_ms", per("arm.lower"), "ms")
	rep.set("disasm.disassemble_ms", per("disasm.disassemble"), "ms")
	rep.set("pattern.analyze_ms", per("pattern.analyze"), "ms")
	rep.set("pattern.loads", ratio(float64(lc.loads), float64(lc.analyses)), "count")
	rep.set("classify.score_ms", per("classify.score"), "ms")
	rep.set("baseline.eval_ms", per("baseline.eval"), "ms")
	rep.set("workerpool.encode_ms", per("encode"), "ms")
	rep.set("vm.run_ms", per("vm.run"), "ms")
	rep.set("vm.insts", ratio(float64(lc.insts), float64(units)), "count")
	rep.set("vm.minsts_per_s", ratio(float64(lc.insts)/1e6, self["vm.run"].Seconds()), "M/s")
	rep.set("cache.sim_ms", per("cache.sim"), "ms")
	rep.set("cache.accesses", ratio(float64(lc.accesses), float64(units)), "count")
	rep.set("cache.maccesses_per_s", ratio(float64(lc.accesses)/1e6, self["cache.sim"].Seconds()), "M/s")
}

// accountingRoots prints how much of the time replayed under the given
// root spans the named layers' self times explain.
func accountingRoots(rep report, t *tracer, roots, layers []string) {
	self := t.selfTimes()
	var covered, total float64
	for _, l := range layers {
		covered += ms(self[l])
	}
	for _, r := range roots {
		total += ms(t.rootTime(r))
	}
	fmt.Printf("  accounting: layer self times cover %.1f%% of %.1f ms replayed under %v\n",
		100*ratio(covered, total), total, roots)
	rep.set("trace.accounted_pct", 100*ratio(covered, total), "%")
}

// replayBuild is one sweep build replayed through the layers.
type replayBuild struct {
	img    *obj.Image
	result *core.Result
}

// replayBuild replays bench.CompileISACtx for a mips build: the compile
// chain, then disassembly and flat pattern analysis.
func (t *tracer) replayBuild(ctx context.Context, b *bench.Benchmark, optimize bool, lc *layerCounts) (*replayBuild, error) {
	img, err := t.build(b.Source, optimize, "mips")
	if err != nil {
		return nil, err
	}
	res, err := t.analyze(ctx, img, false, lc)
	if err != nil {
		return nil, err
	}
	return &replayBuild{img: img, result: res}, nil
}
