package main

import (
	"fmt"
	"math/rand"

	"delinq/internal/progen"
	"delinq/internal/workerpool"
)

// Every workload's request stream is a pure function of (seed, index):
// request k is the same whichever client sends it and however the two
// clients interleave, so the untraced run, the traced replay and the
// output checks all see one stream.

// request is one /v1/analyze call: the job it asks for, the JSON body
// the client posts, and the hot_warm key it targets (-1 for a fresh
// source).
type request struct {
	job  workerpool.Job
	body []byte
	key  int
}

// streamRNG derives the generator for request k of a stream. The
// workload tag keeps streams of different workloads independent.
func streamRNG(tag string, seed int64, k int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9
	for _, c := range []byte(tag) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// newRequest fills in the posted body from the job.
func newRequest(job workerpool.Job, key int) request {
	body := fmt.Sprintf(`{"source":%q,"optimize":%t,"inter":%t,"isa":%q`,
		job.Source, job.Optimize, job.Inter, job.ISA)
	if len(job.Args) > 0 {
		body += `,"args":[`
		for i, a := range job.Args {
			if i > 0 {
				body += ","
			}
			body += fmt.Sprint(a)
		}
		body += "]"
	}
	return request{job: job, body: []byte(body + "}"), key: key}
}

// staticSizes are the progen statement budgets of miss_static: small,
// medium and large main bodies, so compile and pattern cost vary.
var staticSizes = []int{12, 40, 120}

// isas are the machine descriptions requests alternate between.
var isas = []string{"mips", "arm"}

// missStaticRequest is request k of miss_static: a distinct generated
// program. The statement budget, ISA, -O and -inter cycle through all 24
// combinations in every 24 requests, so each is an exact share of any
// run and only the programs themselves depend on the seed. The first
// argument is k, so no two requests share a cache key even if two
// generated sources coincide.
func missStaticRequest(seed int64, k int) request {
	rng := streamRNG("miss_static", seed, k)
	cfg := progen.DefaultConfig()
	cfg.Statements = staticSizes[k%3]
	src := progen.New(cfg).Program(rng.Int63())
	args := []int32{int32(k)}
	for i := rng.Intn(4); i > 0; i-- {
		args = append(args, int32(rng.Intn(4000)-2000))
	}
	return newRequest(workerpool.Job{
		Kind:     workerpool.JobAnalyze,
		Source:   src,
		ISA:      isas[k/3%2],
		Optimize: k/6%2 == 1,
		Inter:    k/12%2 == 1,
		Args:     args,
	}, -1)
}

// kernelWords are the array sizes (in 4-byte words) of the strided
// kernels: 2 KB to 32 KB, below and above the 8 KB baseline cache.
var kernelWords = []int{512, 1024, 2048, 4096, 8192}

// kernelSource is the loadtest kernel family: a strided sum over one
// global array. tag makes the source distinct; iters sets the VM work.
func kernelSource(tag, words, stride, iters int) string {
	return fmt.Sprintf(`int a[%d];
int main() {
	int i; int s = %d;
	for (i = 0; i < %d; i++) { s = s + a[(i * %d) & %d]; a[i & %d] = s; }
	print_int(s);
	return 0;
}`, words, tag, iters, stride, words-1, words-1)
}

// kernelIters is the loop trip count of miss_isolated's kernels.
const kernelIters = 20000

// missIsolatedRequest is request k of miss_isolated: a distinct
// VM-heavy kernel. Array size, ISA and -O cycle through all 20
// combinations in every 20 requests; the stride is drawn from the seed.
func missIsolatedRequest(seed int64, k int) request {
	rng := streamRNG("miss_isolated", seed, k)
	return newRequest(workerpool.Job{
		Kind:     workerpool.JobAnalyze,
		Source:   kernelSource(k, kernelWords[k%5], 2*rng.Intn(32)+1, kernelIters),
		ISA:      isas[k/5%2],
		Optimize: k/10%2 == 1,
	}, -1)
}

// hot_warm: warmKeys kernels are filled before the restart; traffic is
// Zipf(warmSkew) over them, plus one fresh tiny source in every
// freshEvery requests (the write path).
const (
	warmKeys   = 64
	warmSkew   = 1.2
	warmIters  = 4000
	freshEvery = 50
)

// warmKeyRequest is the request for replayed key i; it depends on the
// seed only, so preparation and traffic agree on it.
func warmKeyRequest(seed int64, i int) request {
	rng := streamRNG("hot_warm_key", seed, i)
	return newRequest(workerpool.Job{
		Kind:   workerpool.JobAnalyze,
		Source: kernelSource(i, kernelWords[i%5], 2*rng.Intn(32)+1, warmIters),
		ISA:    isas[i/5%2],
	}, i)
}

// hotWarmRequest is request k of hot_warm.
func hotWarmRequest(seed int64, k int) request {
	if k%freshEvery == freshEvery-1 {
		src := fmt.Sprintf("int main() { print_int(%d); return 0; }", k)
		return newRequest(workerpool.Job{Kind: workerpool.JobAnalyze, Source: src}, -1)
	}
	z := rand.NewZipf(streamRNG("hot_warm", seed, k), warmSkew, 1, warmKeys-1)
	return warmKeyRequest(seed, int(z.Uint64()))
}
