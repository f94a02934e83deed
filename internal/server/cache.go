// The daemon's result-cache layer: content-addressed keys over
// canonicalized requests, rendered responses as the cached value, and
// the interaction rules between the cache and the rest of the
// machinery. The rules, in one place:
//
//   - a cache HIT bypasses admission control entirely: no pipeline
//     runs, so there is nothing to guard;
//   - a MISS goes through the semaphore/queue inside the singleflight
//     fill, so a thundering herd of identical requests costs one
//     admission slot and one pipeline run;
//   - COALESCED callers wait on the executing fill without consuming
//     admission slots, and abandon the wait when their own context is
//     cancelled (client disconnect, deadline, drain abort);
//   - never cached: errors of any status (shed 429s, drain 503s,
//     pipeline 500s, client 400s), recovered panics, and DEGRADED
//     results (a table render with quarantined rows answers 200 but
//     declines retention, so the next request retries the degraded
//     benchmarks).
//
// Every response that went through this layer carries a
// `Delinq-Cache: hit|warm|miss|coalesced` header, so clients and the
// loadtest harness can audit the cache's behaviour per request.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"delinq/internal/isa"
	"delinq/internal/rescache"
	"delinq/internal/workerpool"
)

// cachedResponse is one retained result: the fully rendered success
// body for a canonical request. Caching rendered bytes (rather than the
// response structs) makes the byte-identity guarantee structural — a
// hit replays exactly what the miss wrote.
type cachedResponse struct {
	contentType string
	body        []byte
	degraded    int // table renders only; >0 is never retained
}

// respSize charges a cached response its body plus a small fixed
// overhead for the entry bookkeeping, so MaxBytes tracks real memory.
func respSize(cr *cachedResponse) int {
	return len(cr.body) + len(cr.contentType) + 96
}

// cacheKey hashes the canonical fields of one request into the cache's
// content address. Fields are length-prefixed so no two field sequences
// collide by concatenation.
func cacheKey(fields ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, f := range fields {
		binary.LittleEndian.PutUint64(n[:], uint64(len(f)))
		h.Write(n[:])
		h.Write([]byte(f))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonSource canonicalizes ad-hoc mini-C for keying: CRLF→LF and outer
// whitespace trimmed. Both are semantically inert for the mini-C lexer,
// so requests differing only in line endings or surrounding blank lines
// share a cache entry. No deeper normalisation is attempted — inner
// whitespace could matter to string literals.
func canonSource(src string) string {
	return strings.TrimSpace(strings.ReplaceAll(src, "\r\n", "\n"))
}

// fmtArgs renders program arguments canonically for keying.
func fmtArgs(args []int32) string {
	var b strings.Builder
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(a), 10))
	}
	return b.String()
}

func boolKey(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// analyzeCacheKey is the content address of one analyze request.
func analyzeCacheKey(req analyzeRequest) string {
	return cacheKey("analyze", canonSource(req.Source), req.Benchmark,
		boolKey(req.Optimize), boolKey(req.Inter), boolKey(req.Input2),
		fmtArgs(req.Args), isa.Canonical(req.ISA))
}

// runCacheKey is the content address of one run request.
func runCacheKey(req runRequest) string {
	return cacheKey("run", canonSource(req.Source), req.Benchmark,
		boolKey(req.Optimize), boolKey(req.Input2), fmtArgs(req.Args), isa.Canonical(req.ISA))
}

// tableCacheKey is the content address of one table render.
func tableCacheKey(id string) string {
	return cacheKey("table", id)
}

// fillFunc computes one response: the rendered result, whether it may
// be retained, and an error (*apiError for request-shaped failures).
type fillFunc func() (*cachedResponse, bool, error)

// doCached answers one request through the result cache. With durable
// state attached, a successful cacheable fill is journaled before the
// entry is inserted (errors, panics and degraded results never reach
// the log), and a completed miss gives the log a chance to compact.
func (s *Server) doCached(ctx context.Context, key string, fill fillFunc) (*cachedResponse, rescache.Outcome, error) {
	st := s.state
	pf := fill
	if st != nil {
		pf = func() (*cachedResponse, bool, error) {
			cr, cacheable, err := fill()
			if err == nil && cacheable {
				st.persist(key, cr)
			}
			return cr, cacheable, err
		}
	}
	cr, outcome, err := s.cache.Do(ctx, key, pf)
	if st != nil && outcome == rescache.OutcomeMiss && err == nil {
		// Compaction runs after the fill's entry is inserted, so the
		// live snapshot it persists includes this result.
		st.maybeCompact(s.cache)
	}
	return cr, outcome, err
}

// admit acquires an execution slot, blocking in the bounded queue when
// all slots are busy. Cache hits never come here — only fills do.
func (s *Server) admit(ctx context.Context) (func(), *apiError) {
	release, err := s.adm.acquire(ctx)
	if err != nil {
		if err == errShed {
			s.reg.Counter("delinq_requests_shed_total").Inc()
			ae := errorf(http.StatusTooManyRequests, "overloaded")
			ae.retryAfter = time.Second
			return nil, ae
		}
		// The client gave up (or the drain abort fired) while queued.
		return nil, errorf(http.StatusServiceUnavailable, "cancelled while queued")
	}
	return release, nil
}

// asAPIError maps a doCached error back to the response envelope:
// apiErrors pass through; a recovered fill panic becomes the daemon's
// serve-stage panic envelope; a waiter's own context death becomes a
// 503 (the fill may still be running for others); everything else
// takes the pipeline mapping.
func (s *Server) asAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	var pe *rescache.PanicError
	if errors.As(err, &pe) {
		return s.panicError(pe.Value)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return errorf(http.StatusServiceUnavailable, "cancelled while coalesced: %v", err)
	}
	return resultError(workerpool.PipelineResult(err))
}

// serveCached runs one cacheable endpoint end to end: consult the
// cache, run the fill on a miss, stamp the Delinq-Cache header, and
// write the success body or return the error envelope.
func (s *Server) serveCached(ctx context.Context, w http.ResponseWriter, key string, fill fillFunc) *apiError {
	cr, outcome, err := s.doCached(ctx, key, fill)
	w.Header().Set("Delinq-Cache", outcome.String())
	if err != nil {
		return s.asAPIError(err)
	}
	s.writeCached(w, cr)
	return nil
}

// writeCached renders a cached (or just-filled) response body.
func (s *Server) writeCached(w http.ResponseWriter, cr *cachedResponse) {
	if cr.degraded > 0 {
		w.Header().Set("Delinq-Degraded", strconv.Itoa(cr.degraded))
	}
	w.Header().Set("Content-Type", cr.contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(cr.body)
	s.reg.Counter("delinq_responses_200_total").Inc()
}
