package metrics

import (
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("reqs").Inc()
			}
		}()
	}
	wg.Wait()
	if v, _ := r.Value("reqs"); v != 8000 {
		t.Fatalf("reqs = %d, want 8000 (lost increments)", v)
	}
}

func TestExpositionShape(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		r.Counter("delinq_requests_total").Inc()
	}
	r.Counter("delinq_requests_shed_total")
	r.Gauge("delinq_requests_inflight", func() int64 { return 2 })

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := "delinq_requests_inflight 2\ndelinq_requests_shed_total 0\ndelinq_requests_total 3\n"
	if out != want {
		t.Fatalf("exposition:\n%q\nwant:\n%q", out, want)
	}
	line := regexp.MustCompile(`^[a-z0-9_]+ -?\d+$`)
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !line.MatchString(l) {
			t.Errorf("malformed exposition line %q", l)
		}
	}
}

func TestValueMissing(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Value("nope"); ok {
		t.Fatal("missing metric reported present")
	}
}
