package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span, or -1 for a request root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer records spans in memory from a single goroutine. The traced
// replays call each layer's public function inside begin/end, so the
// program itself carries no tracing code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: t.req})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// selfTimes sums each span name's self time: its duration minus the
// time its child spans cover. Children of one span never overlap, since
// a tracer is driven by one goroutine.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// rootTime sums the durations of the root spans with the given name.
func (t *tracer) rootTime(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// rootDurations lists the durations of root spans with a name.
func (t *tracer) rootDurations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// count is how many spans have a name, at any depth.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
