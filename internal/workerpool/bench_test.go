package workerpool

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"delinq/internal/progen"
)

// progenJobs is the static path of a cold analyze as a stream of
// distinct ad-hoc sources exercises it: analyze jobs over generated
// programs in the 24 combinations of statement budget {12, 40, 120},
// ISA, -O and -inter, with sources drawn from a fixed seed. The VM does
// little on these programs; compile, pattern analysis and
// classification dominate.
func progenJobs() []Job {
	rng := rand.New(rand.NewSource(1))
	var jobs []Job
	for k := 0; k < 24; k++ {
		conf := progen.DefaultConfig()
		conf.Statements = []int{12, 40, 120}[k%3]
		jobs = append(jobs, Job{
			Kind:     JobAnalyze,
			Source:   progen.New(conf).Program(rng.Int63()),
			ISA:      []string{"mips", "arm"}[k/3%2],
			Optimize: k/6%2 == 1,
			Inter:    k/12%2 == 1,
			Args:     []int32{int32(k)},
		})
	}
	return jobs
}

// BenchmarkExecuteProgen runs Execute over progenJobs. One op is all 24
// jobs.
func BenchmarkExecuteProgen(b *testing.B) {
	jobs := progenJobs()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, job := range jobs {
			if res := Execute(ctx, job); res.Status != http.StatusOK {
				b.Fatalf("job %d: status %d: %s", k, res.Status, res.Err)
			}
		}
	}
}

// BenchmarkExecuteKernels measures the dynamic path of a cold analyze
// job, the mirror of BenchmarkExecuteProgen: Execute over strided-sum
// kernels, a global int a[W] read at (i*stride)&(W-1) and written at
// i&(W-1) for 20,000 iterations, in the 20 combinations of W in {512,
// 1024, 2048, 4096, 8192} words, ISA and -O, with strides drawn from a
// fixed seed. The arrays straddle the 8 KB baseline cache, and the VM
// and its cache simulation dominate. One op is all 20 jobs.
func BenchmarkExecuteKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var jobs []Job
	for k := 0; k < 20; k++ {
		words := []int{512, 1024, 2048, 4096, 8192}[k%5]
		jobs = append(jobs, Job{
			Kind: JobAnalyze,
			Source: fmt.Sprintf(`int a[%d];
int main() {
	int i; int s = %d;
	for (i = 0; i < 20000; i++) { s = s + a[(i * %d) & %d]; a[i & %d] = s; }
	print_int(s);
	return 0;
}`, words, k, 2*rng.Intn(32)+1, words-1, words-1),
			ISA:      []string{"mips", "arm"}[k/5%2],
			Optimize: k/10%2 == 1,
		})
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, job := range jobs {
			if res := Execute(ctx, job); res.Status != http.StatusOK {
				b.Fatalf("job %d: status %d: %s", k, res.Status, res.Err)
			}
		}
	}
}
