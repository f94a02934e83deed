package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: one per core of the
// two-core machine the benchmark is sized for, so load never needs
// more processors than exist.
const clients = 2

// response is one completed request as the client saw it.
type response struct {
	k       int
	latency time.Duration
	status  int
	verdict string // Delinq-Cache header
	body    []byte
	wrong   bool // a 200 whose body failed its check
}

// ok reports whether the request succeeded with a correct body.
func (r *response) ok() bool { return r.status == http.StatusOK && !r.wrong }

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	responses []response
	elapsed   time.Duration
}

// verdicts counts responses per Delinq-Cache verdict.
func (lr *loadResult) verdicts() map[string]int {
	out := map[string]int{}
	for _, r := range lr.responses {
		out[r.verdict]++
	}
	return out
}

// latencies returns the latencies of responses with the given verdict,
// or of every response when verdict is empty.
func (lr *loadResult) latencies(verdict string) []time.Duration {
	var out []time.Duration
	for _, r := range lr.responses {
		if verdict == "" || r.verdict == verdict {
			out = append(out, r.latency)
		}
	}
	return out
}

// drive runs the closed loop: each client posts request k (taken from a
// shared counter, so the stream is the same however clients interleave)
// and waits for the answer before sending the next, until dur has
// passed. Requests in flight at the deadline complete and count.
// inspect sees each response on the client's goroutine; it checks the
// body and may drop it (set it to nil) so long runs stay small.
func drive(client *http.Client, base string, dur time.Duration, gen func(k int) request, inspect func(req request, r *response)) *loadResult {
	var next atomic.Int64
	per := make([][]response, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				req := gen(k)
				t := time.Now()
				resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(req.body))
				if err != nil {
					per[c] = append(per[c], response{k: k, latency: time.Since(t)})
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				r := response{k: k, latency: time.Since(t), status: resp.StatusCode,
					verdict: resp.Header.Get("Delinq-Cache"), body: body}
				if err != nil {
					r.status = 0
				}
				inspect(req, &r)
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	lr := &loadResult{elapsed: time.Since(start)}
	for _, p := range per {
		lr.responses = append(lr.responses, p...)
	}
	return lr
}
