//go:build !race

package workerpool

import (
	"context"
	"net/http"
	"runtime"
	"testing"
)

// TestExecuteProgenAllocBudget bounds what one pass over progenJobs
// allocates, the garbage a cold analyze leaves for the collector: at
// most 175,000 allocations and 20 MB. The race detector allocates on
// its own account, so the budget holds only without it.
func TestExecuteProgenAllocBudget(t *testing.T) {
	const maxAllocs, maxBytes = 175_000, 20_000_000
	jobs := progenJobs()
	ctx := context.Background()
	pass := func() {
		for k, job := range jobs {
			if res := Execute(ctx, job); res.Status != http.StatusOK {
				t.Fatalf("job %d: status %d: %s", k, res.Status, res.Err)
			}
		}
	}
	pass() // one-time initialisation is not the jobs' cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("24 jobs: %d allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("24 jobs allocated %d times and %d bytes; budget %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
