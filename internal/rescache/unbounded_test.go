package rescache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file pin the zero Config — unbounded, no expiry,
// every successful fill retained — in which internal/bench memoises
// builds and runs and internal/pattern memoises summaries.

func TestDoMemoises(t *testing.T) {
	c := New[int](Config{}, nil)
	ctx := context.Background()
	calls := 0
	fill := func() (int, bool, error) { calls++; return 42, true, nil }
	for i := 0; i < 3; i++ {
		v, _, err := c.Do(ctx, "k", fill)
		if err != nil || v != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("fill ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	items := c.Items()
	if len(items) != 1 || items[0].Key != "k" || items[0].Val != 42 {
		t.Errorf("retained = %+v, want only k=42", items)
	}
}

// TestSingleflight launches many goroutines on one key while the first
// fill is deliberately held open: exactly one fill runs, every other
// caller joins it.
func TestSingleflight(t *testing.T) {
	c := New[int](Config{}, nil)
	ctx := context.Background()
	const n = 16
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	fill := func() (int, bool, error) {
		calls.Add(1)
		close(started)
		<-release
		return 7, true, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, o, _ := c.Do(ctx, "k", fill); v != 7 || o != OutcomeMiss {
			t.Errorf("leader got (%d, %v), want (7, miss)", v, o)
		}
	}()
	<-started // the leader is inside fill; everyone else must join

	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, o, err := c.Do(ctx, "k", func() (int, bool, error) {
				t.Error("second fill started")
				return 0, false, nil
			})
			if err != nil || v != 7 || o != OutcomeCoalesced {
				t.Errorf("joiner got (%v, %v, %v), want (7, coalesced, nil)", v, o, err)
			}
		}()
	}
	// Wait until every joiner is accounted for, then let the flight finish.
	waitUntil(t, func() bool { return c.Stats().Joined == n })
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fill ran %d times, want 1", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Joined != n || st.Inflight != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestErrorRetryRetained: a failed fill is delivered but not retained,
// so the next Do with the same fill retries, and the retry's success is
// retained.
func TestErrorRetryRetained(t *testing.T) {
	c := New[int](Config{}, nil)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	fill := func() (int, bool, error) {
		calls++
		if calls == 1 {
			return 0, true, boom
		}
		return 9, true, nil
	}
	if _, _, err := c.Do(ctx, "k", fill); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v", err)
	}
	if v, o, err := c.Do(ctx, "k", fill); err != nil || v != 9 || o != OutcomeMiss {
		t.Fatalf("retry = (%v, %v, %v), want (9, miss, nil)", v, o, err)
	}
	st := c.Stats()
	if st.Errors != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPanicBecomesError: a panicking fill must not kill the process or
// deadlock joined waiters; every caller gets a *PanicError and the
// failed key is recomputable.
func TestPanicBecomesError(t *testing.T) {
	c := New[int](Config{}, nil)
	ctx := context.Background()
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = c.Do(ctx, "k", func() (int, bool, error) {
			close(started)
			<-release
			panic("deliberate")
		})
	}()
	<-started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(ctx, "k", func() (int, bool, error) { return 0, true, nil })
		}(i)
	}
	// Let the joiners attach, then let the panic fly.
	waitUntil(t, func() bool { return c.Stats().Joined == 3 })
	close(release)
	wg.Wait()

	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d: err = %v, want *PanicError", i, err)
		}
		if pe.Value != "deliberate" || len(pe.Stack) == 0 {
			t.Errorf("caller %d: PanicError = %+v", i, pe)
		}
	}

	// The error is not retained: the key recomputes cleanly.
	v, _, err := c.Do(ctx, "k", func() (int, bool, error) { return 42, true, nil })
	if err != nil || v != 42 {
		t.Errorf("recompute after panic = %d, %v", v, err)
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("inflight = %d after panic", st.Inflight)
	}
}

// TestResetDetachedFillDoesNotClobber: after a Reset issued while a fill
// is running, a Do for the same key starts fresh and completes while the
// detached fill is still in flight; the detached fill still answers its
// own caller, and its late completion neither unregisters nor replaces
// the fresh retained result.
func TestResetDetachedFillDoesNotClobber(t *testing.T) {
	c := New[string](Config{}, nil)
	ctx := context.Background()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan string)
	go func() {
		v, _, _ := c.Do(ctx, "k", func() (string, bool, error) {
			close(started)
			<-release
			return "old", true, nil
		})
		done <- v
	}()
	<-started
	c.Reset()

	// The detached flight is no longer visible: a new Do recomputes.
	if v, o, _ := c.Do(ctx, "k", fillOK("new")); v != "new" || o != OutcomeMiss {
		t.Errorf("post-reset Do = (%q, %v), want (new, miss)", v, o)
	}
	close(release)
	if v := <-done; v != "old" {
		t.Errorf("detached caller got %q, want \"old\"", v)
	}
	// Only the post-reset result is retained.
	if v, ok := retained(c, "k"); !ok || v != "new" {
		t.Errorf("retained = (%q, %v), want (new, true)", v, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Inflight != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines over a
// small key space, with one goroutine resetting it as it goes; run it
// under the race detector.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New[int](Config{}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%5)
				want := i % 5
				v, _, err := c.Do(context.Background(), key, func() (int, bool, error) { return want, true, nil })
				if err != nil || v != want {
					t.Errorf("Do(%s) = %v, %v", key, v, err)
					return
				}
				if g == 0 && i%50 == 0 {
					c.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("inflight = %d after every Do returned", st.Inflight)
	}
}
