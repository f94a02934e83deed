// Operational counters: a tiny registry of named monotonically
// increasing counters and callback gauges, rendered in a flat
// "name value" text exposition. The analysis daemon publishes its
// request, admission, cache and worker statistics through one Registry
// on GET /metrics; the package stays dependency-free so any component can
// count without pulling in the server.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing operational counter, safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry is a named collection of counters and gauges.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]func() int64{},
	}
}

// Counter returns the named counter, creating it at zero on first use.
// Concurrent calls with the same name share one counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers a callback sampled at exposition time (e.g. current
// in-flight requests). Re-registering a name replaces the callback.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// snapshot returns every metric's current value keyed by name. A gauge
// and a counter sharing a name is a registration bug; the gauge wins
// deterministically.
func (r *Registry) snapshot() map[string]int64 {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]func() int64, len(r.gauges))
	for n, fn := range r.gauges {
		gauges[n] = fn
	}
	r.mu.Unlock()
	out := make(map[string]int64, len(counters)+len(gauges))
	for n, c := range counters {
		out[n] = c.Value()
	}
	for n, fn := range gauges {
		out[n] = fn()
	}
	return out
}

// Value returns the current value of the named metric and whether it
// exists.
func (r *Registry) Value(name string) (int64, bool) {
	v, ok := r.snapshot()[name]
	return v, ok
}

// WriteTo renders every metric as one "name value" line, sorted by
// name, so the exposition is deterministic and trivially parseable.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	snap := r.snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var total int64
	for _, n := range names {
		k, err := fmt.Fprintf(w, "%s %d\n", n, snap[n])
		total += int64(k)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
