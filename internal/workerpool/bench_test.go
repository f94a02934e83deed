package workerpool

import (
	"context"
	"math/rand"
	"net/http"
	"testing"

	"delinq/internal/progen"
)

// BenchmarkExecuteProgen measures the static path of a cold analyze
// job: Execute over generated programs in the 24 combinations of
// statement budget {12, 40, 120}, ISA, -O and -inter, the mix a stream
// of distinct ad-hoc sources exercises. The VM does little on these
// programs; compile, pattern analysis and classification dominate. One
// op is all 24 jobs, with sources drawn from a fixed seed.
func BenchmarkExecuteProgen(b *testing.B) {
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
