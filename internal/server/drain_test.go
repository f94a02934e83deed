package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestGracefulDrain walks the full drain contract with a controlled
// slow request: the test holds the request's body open so it occupies
// an execution slot for exactly as long as the test wants. While it is
// in flight: BeginDrain flips /readyz to 503 and new API work is
// refused; the in-flight request still completes successfully; Drain
// then returns cleanly.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})

	pr, pw := io.Pipe()
	type result struct {
		code int
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", pr)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{code: resp.StatusCode, body: string(b)}
	}()
	// The held-open body keeps the request inside the drain gate (it has
	// not decoded yet, so it holds no admission slot).
	waitFor(t, func() bool { return s.enteredRequests() == 1 })

	s.BeginDrain()

	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Errorf("draining readyz = %d %q, want 503 draining", code, body)
	}
	code, hdr, body := postJSON(t, ts.URL+"/v1/analyze", `{}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("new request during drain = %d %q, want 503 draining", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("drain refusal without Retry-After")
	}
	// Metrics stay reachable during drain.
	if code, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK {
		t.Error("metrics unreachable during drain")
	}

	// Complete the in-flight request: it must finish normally even
	// though the daemon is draining.
	fmt.Fprintf(pw, `{"source": %q}`, srcLoop)
	pw.Close()
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request = %d (%s), want 200", r.code, r.body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
}

// TestShutdownBeforeServe: a SIGTERM can land between the listening
// line and Serve. A Shutdown that runs from onListen, before Serve has
// started, still stops the daemon: ListenAndServe returns nil at once
// and the listener is closed.
func TestShutdownBeforeServe(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- s.ListenAndServe(func(a net.Addr) {
			addrCh <- a
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown = %v", err)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe after an early Shutdown = %v, want nil", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("daemon still serving 3s after a Shutdown that ran before Serve")
	}
	if c, err := net.Dial("tcp", (<-addrCh).String()); err == nil {
		c.Close()
		t.Error("listener still accepting after Shutdown")
	}
}

// TestDrainAbortsStragglers: a request spinning in the VM past the
// drain deadline is aborted via context cancellation — Drain returns
// the deadline error promptly instead of hanging on the straggler.
func TestDrainAbortsStragglers(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(fmt.Sprintf(`{"source": %q}`, srcSpin)))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.adm.Inflight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("forced drain took %v; the straggler was not aborted", elapsed)
	}
	// The aborted request surfaced as a server-side failure, not a hang.
	if code := <-done; code != http.StatusInternalServerError {
		t.Errorf("aborted straggler answered %d, want 500", code)
	}
}
