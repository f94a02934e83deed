package rescache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func fillOK(v string) func() (string, bool, error) {
	return func() (string, bool, error) { return v, true, nil }
}

// retained reports the value the cache holds for key. It reads Items,
// so the check moves no LRU position and bumps no counter.
func retained(c *Cache[string], key string) (string, bool) {
	for _, it := range c.Items() {
		if it.Key == key {
			return it.Val, true
		}
	}
	return "", false
}

func TestHitMissBasics(t *testing.T) {
	c := New[string](Config{}, func(s string) int { return len(s) })
	ctx := context.Background()

	v, o, err := c.Do(ctx, "k", fillOK("value"))
	if v != "value" || o != OutcomeMiss || err != nil {
		t.Fatalf("first Do = (%q, %v, %v), want (value, miss, nil)", v, o, err)
	}
	v, o, err = c.Do(ctx, "k", func() (string, bool, error) {
		t.Fatal("fill ran on a hit")
		return "", false, nil
	})
	if v != "value" || o != OutcomeHit || err != nil {
		t.Fatalf("second Do = (%q, %v, %v), want (value, hit, nil)", v, o, err)
	}
	if got, ok := retained(c, "k"); !ok || got != "value" {
		t.Errorf("retained = (%q, %v), want (value, true)", got, ok)
	}
	if _, ok := retained(c, "absent"); ok {
		t.Error("cache invented a value for an absent key")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 || st.Bytes != 5 || st.Inflight != 0 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry, 5 bytes, none in flight", st)
	}
}

// TestExactlyOnce is the singleflight concurrency battery: N goroutines
// racing on one key must execute the fill exactly once; every caller
// gets the same value; exactly one caller reports OutcomeMiss.
func TestExactlyOnce(t *testing.T) {
	const goroutines = 64
	c := New[string](Config{}, nil)
	var fills atomic.Int64
	gate := make(chan struct{})

	var wg sync.WaitGroup
	var misses, coalesced, hits atomic.Int64
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, o, err := c.Do(context.Background(), "shared", func() (string, bool, error) {
				fills.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the coalescing window
				return "once", true, nil
			})
			if err != nil || v != "once" {
				t.Errorf("Do = (%q, %v)", v, err)
			}
			switch o {
			case OutcomeMiss:
				misses.Add(1)
			case OutcomeCoalesced:
				coalesced.Add(1)
			case OutcomeHit:
				hits.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()

	if fills.Load() != 1 {
		t.Fatalf("fill executed %d times, want exactly once", fills.Load())
	}
	if misses.Load() != 1 {
		t.Errorf("%d callers reported miss, want 1", misses.Load())
	}
	if misses.Load()+coalesced.Load()+hits.Load() != goroutines {
		t.Errorf("outcomes don't partition: miss=%d coalesced=%d hit=%d",
			misses.Load(), coalesced.Load(), hits.Load())
	}
	st := c.Stats()
	if st.Misses != 1 || st.Joined != uint64(coalesced.Load()) {
		t.Errorf("stats disagree with observed outcomes: %+v", st)
	}
}

// TestConcurrentDistinctKeysExactlyOnce: with distinct keys under
// concurrency, fills == keys (the exactly-once counter generalises).
func TestConcurrentDistinctKeysExactlyOnce(t *testing.T) {
	const keys, perKey = 16, 8
	c := New[int](Config{}, nil)
	var fills atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for i := 0; i < perKey; i++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, _, err := c.Do(context.Background(), fmt.Sprintf("k%d", k), func() (int, bool, error) {
					fills.Add(1)
					return k * 10, true, nil
				})
				if err != nil || v != k*10 {
					t.Errorf("key %d: Do = (%d, %v)", k, v, err)
				}
			}(k)
		}
	}
	wg.Wait()
	if fills.Load() != keys {
		t.Errorf("fills = %d, want %d (exactly once per key)", fills.Load(), keys)
	}
}

// TestEvictionLRU: the least-recently-used entry goes first, and a
// touched entry is spared.
func TestEvictionLRU(t *testing.T) {
	c := New[string](Config{MaxEntries: 2}, nil)
	ctx := context.Background()
	c.Do(ctx, "a", fillOK("A"))
	c.Do(ctx, "b", fillOK("B"))
	c.Do(ctx, "a", fillOK("A")) // touch a: b is now the LRU tail
	c.Do(ctx, "c", fillOK("C")) // evicts b
	if _, ok := retained(c, "b"); ok {
		t.Error("LRU-tail entry b survived eviction")
	}
	if _, ok := retained(c, "a"); !ok {
		t.Error("recently-used entry a was evicted")
	}
	if st := c.Stats(); st.EvictedSize != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 size eviction, 2 entries", st)
	}
}

// TestEvictionBytes: the byte cap evicts from the tail until under
// budget; an oversized single value is delivered but never retained.
func TestEvictionBytes(t *testing.T) {
	c := New[string](Config{MaxBytes: 10}, func(s string) int { return len(s) })
	ctx := context.Background()
	c.Do(ctx, "a", fillOK("aaaa")) // 4 bytes
	c.Do(ctx, "b", fillOK("bbbb")) // 8 bytes total
	c.Do(ctx, "c", fillOK("cccc")) // 12 -> evicts a
	if _, ok := retained(c, "a"); ok {
		t.Error("byte cap did not evict the tail")
	}
	if st := c.Stats(); st.Bytes != 8 {
		t.Errorf("Bytes = %d, want 8", st.Bytes)
	}

	v, o, err := c.Do(ctx, "big", fillOK("0123456789ABCDEF"))
	if v != "0123456789ABCDEF" || o != OutcomeMiss || err != nil {
		t.Fatalf("oversized Do = (%q, %v, %v)", v, o, err)
	}
	if _, ok := retained(c, "big"); ok {
		t.Error("a value larger than MaxBytes was retained")
	}
	if st := c.Stats(); st.Bytes > 10 {
		t.Errorf("Bytes = %d exceeds the cap", st.Bytes)
	}
}

// TestEvictionUnderConcurrentInsert: many goroutines inserting distinct
// keys against a tiny cache. Under -race this exercises the insert/evict
// interleavings; afterwards the caps must hold exactly.
func TestEvictionUnderConcurrentInsert(t *testing.T) {
	const maxEntries, inserts = 8, 256
	c := New[string](Config{MaxEntries: maxEntries, MaxBytes: 1 << 20}, func(s string) int { return len(s) })
	var wg sync.WaitGroup
	for i := 0; i < inserts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%03d", i)
			v, _, err := c.Do(context.Background(), key, fillOK(key))
			if err != nil || v != key {
				t.Errorf("insert %s: (%q, %v)", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > maxEntries {
		t.Errorf("entries = %d exceeds cap %d", st.Entries, maxEntries)
	}
	if st.Misses != inserts {
		t.Errorf("misses = %d, want %d (distinct keys fill exactly once)", st.Misses, inserts)
	}
	if st.EvictedSize != inserts-uint64(st.Entries) {
		t.Errorf("evictions %d + entries %d != inserts %d", st.EvictedSize, st.Entries, inserts)
	}
	var wantBytes int64
	for i := 0; i < inserts; i++ {
		if _, ok := retained(c, fmt.Sprintf("k%03d", i)); ok {
			wantBytes += 4
		}
	}
	if st := c.Stats(); st.Bytes != wantBytes {
		t.Errorf("Bytes = %d, retained entries sum to %d", st.Bytes, wantBytes)
	}
}

// TestErrorNotRetained: a failed fill answers its waiters but the next
// Do recomputes; nothing is poisoned.
func TestErrorNotRetained(t *testing.T) {
	c := New[string](Config{}, nil)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, o, err := c.Do(ctx, "k", func() (string, bool, error) { return "", false, boom }); err != boom || o != OutcomeMiss {
		t.Fatalf("failing Do = (%v, %v)", o, err)
	}
	v, o, err := c.Do(ctx, "k", fillOK("ok"))
	if v != "ok" || o != OutcomeMiss || err != nil {
		t.Fatalf("retry after error = (%q, %v, %v), want fresh miss", v, o, err)
	}
	if st := c.Stats(); st.Errors != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 error, 2 misses", st)
	}
}

// TestUncacheableNotRetained: a successful fill that declines retention
// (the server's DEGRADED rule) is delivered but not stored.
func TestUncacheableNotRetained(t *testing.T) {
	c := New[string](Config{}, nil)
	ctx := context.Background()
	v, o, err := c.Do(ctx, "k", func() (string, bool, error) { return "degraded", false, nil })
	if v != "degraded" || o != OutcomeMiss || err != nil {
		t.Fatalf("uncacheable Do = (%q, %v, %v)", v, o, err)
	}
	if _, ok := retained(c, "k"); ok {
		t.Error("uncacheable result was retained")
	}
	var refills atomic.Int64
	c.Do(ctx, "k", func() (string, bool, error) { refills.Add(1); return "fine", true, nil })
	if refills.Load() != 1 {
		t.Error("uncacheable result suppressed the refill")
	}
	if st := c.Stats(); st.Uncacheable != 1 {
		t.Errorf("Uncacheable = %d, want 1", st.Uncacheable)
	}
}

// TestPanicPropagatesToAllWaiters: a panicking fill delivers a
// *PanicError to the executor AND every coalesced waiter, and
// poisons nothing — the next Do succeeds.
func TestPanicPropagatesToAllWaiters(t *testing.T) {
	const waiters = 16
	c := New[string](Config{}, nil)
	started := make(chan struct{})
	release := make(chan struct{})

	executorErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (string, bool, error) {
			close(started)
			<-release
			panic("deliberate fill panic")
		})
		executorErr <- err
	}()
	<-started

	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, o, err := c.Do(context.Background(), "k", func() (string, bool, error) {
				t.Error("waiter ran its own fill during an in-flight panic")
				return "", false, nil
			})
			if o != OutcomeCoalesced {
				t.Errorf("waiter outcome = %v, want coalesced", o)
			}
			errs <- err
		}()
	}
	// Waiters enqueue before the panic fires. Joined counts under mu,
	// so once Stats sees them all they are all joined.
	waitUntil(t, func() bool { return c.Stats().Joined == waiters })
	close(release)
	wg.Wait()
	close(errs)

	check := func(err error) {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("waiter got %v, want *PanicError", err)
		}
		if pe.Value != "deliberate fill panic" {
			t.Errorf("panic value = %v", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Error("panic error without a stack")
		}
	}
	check(<-executorErr)
	for err := range errs {
		check(err)
	}

	// Nothing is poisoned: the key fills fresh and the cache still works.
	v, o, err := c.Do(context.Background(), "k", fillOK("recovered"))
	if v != "recovered" || o != OutcomeMiss || err != nil {
		t.Fatalf("Do after panic = (%q, %v, %v), want fresh success", v, o, err)
	}
	if st := c.Stats(); st.Errors != 1 || st.Entries != 1 || st.Inflight != 0 {
		t.Errorf("stats after recovery = %+v", st)
	}
}

// TestPanicErrorUnwrap: an error panic value is reachable through
// errors.Is/As; a non-error value unwraps to nil.
func TestPanicErrorUnwrap(t *testing.T) {
	cause := errors.New("cause")
	c := New[int](Config{}, nil)
	_, _, err := c.Do(context.Background(), "k", func() (int, bool, error) { panic(cause) })
	if !errors.Is(err, cause) {
		t.Errorf("error panic value not reachable: %v", err)
	}
	pe := &PanicError{Value: 7}
	if pe.Unwrap() != nil {
		t.Error("non-error panic value unwrapped to non-nil")
	}
}

// TestWaiterContextCancellation: a joined waiter abandons the wait when
// its own context dies (the drain-abort path); the fill keeps running
// and still completes for the cache.
func TestWaiterContextCancellation(t *testing.T) {
	c := New[string](Config{}, nil)
	started := make(chan struct{})
	release := make(chan struct{})

	go func() {
		c.Do(context.Background(), "k", func() (string, bool, error) {
			close(started)
			<-release
			return "slow", true, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, o, err := c.Do(ctx, "k", nil) // joins; fill func unused
		if o != OutcomeCoalesced {
			t.Errorf("outcome = %v, want coalesced", o)
		}
		waiterDone <- err
	}()
	waitUntil(t, func() bool { return c.Stats().Joined == 1 })
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}

	close(release)
	waitUntil(t, func() bool { _, ok := retained(c, "k"); return ok })
	if v, ok := retained(c, "k"); !ok || v != "slow" {
		t.Errorf("fill result lost after waiter cancellation: (%q, %v)", v, ok)
	}
}

// TestJoinerOutlivesLeader: a fill that fails because its leader's
// context ended is not the joined caller's outcome. The joiner, whose
// own context is alive, runs the next fill itself, and every Do call
// counts exactly the outcome it returned: one error, one miss, no join.
func TestJoinerOutlivesLeader(t *testing.T) {
	c := New[string](Config{}, nil)
	ctxA, cancelA := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctxA, "k", func() (string, bool, error) {
			close(started)
			<-release
			return "", false, ctxA.Err()
		})
		leaderErr <- err
	}()
	<-started

	type result struct {
		v   string
		o   Outcome
		err error
	}
	joined := make(chan result, 1)
	go func() {
		v, o, err := c.Do(context.Background(), "k", fillOK("fresh"))
		joined <- result{v, o, err}
	}()
	waitUntil(t, func() bool { return c.Stats().Joined == 1 })
	cancelA()
	close(release)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	if r := <-joined; r.err != nil || r.v != "fresh" || r.o != OutcomeMiss {
		t.Fatalf("joiner got (%q, %v, %v), want a fresh miss", r.v, r.o, r.err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Joined != 0 || st.Errors != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 2 misses, 0 joins, 1 error, 1 entry", st)
	}
}

// TestJoinerSharesLiveLeaderError: a fill that fails while its leader's
// context is alive is a real outcome, delivered to every joiner.
func TestJoinerSharesLiveLeaderError(t *testing.T) {
	c := New[string](Config{}, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("boom")
	go func() {
		c.Do(context.Background(), "k", func() (string, bool, error) {
			close(started)
			<-release
			return "", false, boom
		})
	}()
	<-started
	joined := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", fillOK("unused"))
		joined <- err
	}()
	waitUntil(t, func() bool { return c.Stats().Joined == 1 })
	close(release)
	if err := <-joined; !errors.Is(err, boom) {
		t.Fatalf("joiner got %v, want the leader's error", err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Joined != 1 || st.Errors != 1 {
		t.Errorf("stats %+v, want 1 miss, 1 join, 1 error", st)
	}
}

// TestResetDetachesInflight: Reset during a fill drops retention but
// the fill still answers its waiters, and a post-Reset Do recomputes.
func TestResetDetachesInflight(t *testing.T) {
	c := New[string](Config{}, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	got := make(chan string, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), "k", func() (string, bool, error) {
			close(started)
			<-release
			return "detached", true, nil
		})
		got <- v
	}()
	<-started
	c.Reset()
	close(release)
	if v := <-got; v != "detached" {
		t.Fatalf("detached fill answered %q", v)
	}
	if _, ok := retained(c, "k"); ok {
		t.Error("detached result was retained after Reset")
	}
	var fills atomic.Int64
	c.Do(context.Background(), "k", func() (string, bool, error) { fills.Add(1); return "new", true, nil })
	if fills.Load() != 1 {
		t.Error("post-Reset Do did not recompute")
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// --- durability-layer surface: Seed / warm hits / Items / OnEvict ---------

func TestSeedAndWarmHit(t *testing.T) {
	c := New[string](Config{}, func(s string) int { return len(s) })
	ctx := context.Background()

	if !c.Seed("k", "replayed") {
		t.Fatal("Seed of a fresh key returned false")
	}
	if c.Seed("k", "other") {
		t.Fatal("re-Seed of a live key succeeded")
	}
	v, o, err := c.Do(ctx, "k", func() (string, bool, error) {
		t.Fatal("fill ran on a seeded key")
		return "", false, nil
	})
	if v != "replayed" || o != OutcomeWarm || err != nil {
		t.Fatalf("Do on seeded key = (%q, %v, %v), want (replayed, warm, nil)", v, o, err)
	}
	if o.String() != "warm" {
		t.Fatalf("OutcomeWarm.String() = %q", o.String())
	}
	st := c.Stats()
	if st.Hits != 1 || st.WarmHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want hits=1 warmhits=1 misses=0", st)
	}
	// A filled (non-seeded) entry never reports warm.
	c.Do(ctx, "cold", fillOK("x"))
	_, o, _ = c.Do(ctx, "cold", fillOK("x"))
	if o != OutcomeHit {
		t.Fatalf("cold hit outcome = %v", o)
	}
	if st := c.Stats(); st.WarmHits != 1 {
		t.Fatalf("cold hit counted warm: %+v", st)
	}
}

func TestEvictionDuringSeed(t *testing.T) {
	// Replay of a durable log larger than the configured caps must
	// behave exactly like ordinary eviction: oldest seeds fall off the
	// tail, the hook sees each one, the caps hold.
	var evicted []string
	c := New[string](Config{MaxEntries: 3}, nil)
	c.SetOnEvict(func(key string, v string) { evicted = append(evicted, key) })
	for i := 0; i < 10; i++ {
		if !c.Seed(fmt.Sprintf("k%d", i), "v") {
			t.Fatalf("Seed k%d failed", i)
		}
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("Entries = %d, want 3", st.Entries)
	}
	if len(evicted) != 7 || evicted[0] != "k0" || evicted[6] != "k6" {
		t.Fatalf("evicted = %v, want k0..k6 in order", evicted)
	}
	// Survivors are the newest seeds, and they answer warm.
	for i := 7; i < 10; i++ {
		v, o, err := c.Do(context.Background(), fmt.Sprintf("k%d", i), fillOK("recomputed"))
		if v != "v" || o != OutcomeWarm || err != nil {
			t.Fatalf("k%d = (%q, %v, %v)", i, v, o, err)
		}
	}
	if st := c.Stats(); st.EvictedSize != 7 {
		t.Fatalf("EvictedSize = %d, want 7", st.EvictedSize)
	}
}

func TestOnEvictFiresForCaps(t *testing.T) {
	var evicted []string
	c := New[string](Config{MaxEntries: 2, MaxBytes: 3}, func(v string) int { return len(v) })
	c.SetOnEvict(func(key string, v string) { evicted = append(evicted, key) })
	ctx := context.Background()
	c.Do(ctx, "a", fillOK("1"))
	c.Do(ctx, "b", fillOK("2"))
	c.Do(ctx, "c", fillOK("3"))   // evicts a (entry cap)
	c.Do(ctx, "d", fillOK("333")) // evicts b and c (byte cap)
	if len(evicted) != 3 || evicted[0] != "a" || evicted[1] != "b" || evicted[2] != "c" {
		t.Fatalf("evicted = %v, want [a b c]", evicted)
	}
	// Reset is not an eviction: the hook must stay silent.
	c.Reset()
	if len(evicted) != 3 {
		t.Fatalf("Reset fired the eviction hook: %v", evicted)
	}
}

func TestItemsSnapshotLRUOrder(t *testing.T) {
	c := New[string](Config{}, nil)
	ctx := context.Background()
	c.Do(ctx, "a", fillOK("1"))
	c.Do(ctx, "b", fillOK("2"))
	c.Do(ctx, "c", fillOK("3"))
	c.Do(ctx, "a", fillOK("-")) // hit: a becomes most recent
	items := c.Items()
	if len(items) != 3 {
		t.Fatalf("Items = %v", items)
	}
	got := []string{items[0].Key, items[1].Key, items[2].Key}
	want := []string{"b", "c", "a"} // least → most recently used
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Items order = %v, want %v", got, want)
		}
	}
	// Seeding in Items order reconstructs the same LRU: the last seed
	// (most recent) survives a 1-entry cap squeeze first... verify by
	// round-tripping into a second cache and evicting down to 1.
	c2 := New[string](Config{}, nil)
	for _, it := range items {
		c2.Seed(it.Key, it.Val)
	}
	items2 := c2.Items()
	for i := range items {
		if items2[i] != items[i] {
			t.Fatalf("round-trip order: %v vs %v", items2, items)
		}
	}
}
