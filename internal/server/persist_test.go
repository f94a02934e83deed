package server

// Durable-state semantics: warm restarts serve byte-identical responses
// with `Delinq-Cache: warm`, poisoned fills never cross the restart
// boundary, corrupt state recovers to a working (cold) daemon, and
// eviction pressure compacts the log.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"delinq/internal/faultinject"
	"delinq/internal/wal"
	"delinq/internal/workerpool"
)

// newStatefulDaemon builds a daemon with durable state attached.
func newStatefulDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.OpenState(); err != nil {
		t.Fatalf("OpenState: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func analyzeBody(src string) string {
	return `{"source": ` + jsonString(src) + `}`
}

func jsonString(s string) string {
	r := strings.NewReplacer("\\", "\\\\", `"`, `\"`, "\n", "\\n", "\t", "\\t")
	return `"` + r.Replace(s) + `"`
}

func TestWarmRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir}

	// Cold run: a miss fills and journals.
	s1, ts1 := newStatefulDaemon(t, cfg)
	code, hdr, coldBody := postJSON(t, ts1.URL+"/v1/analyze", analyzeBody(srcLoop))
	if code != 200 || hdr.Get("Delinq-Cache") != "miss" {
		t.Fatalf("cold: code=%d cache=%q", code, hdr.Get("Delinq-Cache"))
	}
	// A clean shutdown closes the log.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Warm run: a NEW daemon over the same state dir answers without
	// filling, byte-identically, and says so in the header.
	_, ts2 := newStatefulDaemon(t, cfg)
	code, hdr, warmBody := postJSON(t, ts2.URL+"/v1/analyze", analyzeBody(srcLoop))
	if code != 200 {
		t.Fatalf("warm: code=%d body=%s", code, warmBody)
	}
	if got := hdr.Get("Delinq-Cache"); got != "warm" {
		t.Fatalf("warm restart header = %q, want warm", got)
	}
	if warmBody != coldBody {
		t.Fatalf("warm body differs from cold:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	// A second request on the same key is a plain warm hit too.
	_, hdr, again := postJSON(t, ts2.URL+"/v1/analyze", analyzeBody(srcLoop))
	if hdr.Get("Delinq-Cache") != "warm" || again != coldBody {
		t.Fatalf("second warm hit: header=%q", hdr.Get("Delinq-Cache"))
	}
}

func TestWarmRestartMetrics(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir}
	s1, ts1 := newStatefulDaemon(t, cfg)
	postJSON(t, ts1.URL+"/v1/analyze", analyzeBody(srcLoop))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Shutdown(ctx)

	_, ts2 := newStatefulDaemon(t, cfg)
	postJSON(t, ts2.URL+"/v1/analyze", analyzeBody(srcLoop))
	_, metrics := get(t, ts2.URL+"/metrics")
	for _, want := range []string{
		"delinq_state_enabled 1",
		"delinq_state_replayed_entries 1",
		"delinq_cache_warm_hits_total 1",
		"delinq_state_torn_tail 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestPoisonedFillNotPersisted(t *testing.T) {
	// A fill that panics (recovered into rescache.PanicError) answers 500
	// and must leave no trace in the durable log: the restarted daemon
	// recomputes instead of replaying poison.
	dir := t.TempDir()
	cfg := Config{StateDir: dir}
	s1, ts1 := newStatefulDaemon(t, cfg)

	plan := faultinject.NewPlan(1)
	plan.Arm(faultinject.WorkerPanic, "008.espresso")
	faultinject.Install(plan)
	code, _, body := postJSON(t, ts1.URL+"/v1/analyze", `{"benchmark": "008.espresso"}`)
	faultinject.Clear()
	if code != 500 {
		t.Fatalf("poisoned fill answered %d: %s", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Shutdown(ctx)

	s2, ts2 := newStatefulDaemon(t, cfg)
	if n := s2.state.replayed.Load(); n != 0 {
		t.Fatalf("poisoned fill crossed the restart: %d entries replayed", n)
	}
	// And the recompute (fault cleared) succeeds as a plain miss.
	code, hdr, _ := postJSON(t, ts2.URL+"/v1/analyze", `{"benchmark": "008.espresso"}`)
	if code != 200 || hdr.Get("Delinq-Cache") != "miss" {
		t.Fatalf("recompute after poison: code=%d cache=%q", code, hdr.Get("Delinq-Cache"))
	}
}

func TestCorruptStateRecovers(t *testing.T) {
	// Smash the log body; the daemon must boot, report the damage, and
	// serve correctly (cold where entries were lost).
	dir := t.TempDir()
	cfg := Config{StateDir: dir}
	s1, ts1 := newStatefulDaemon(t, cfg)
	_, _, coldBody := postJSON(t, ts1.URL+"/v1/analyze", analyzeBody(srcLoop))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Shutdown(ctx)

	path := filepath.Join(dir, stateFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(b) / 2; i < len(b); i++ {
		b[i] ^= 0xA5
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newStatefulDaemon(t, cfg)
	code, hdr, body := postJSON(t, ts2.URL+"/v1/analyze", analyzeBody(srcLoop))
	if code != 200 {
		t.Fatalf("post-corruption: code=%d", code)
	}
	if h := hdr.Get("Delinq-Cache"); h != "miss" && h != "warm" {
		t.Fatalf("post-corruption header = %q", h)
	}
	if body != coldBody {
		t.Fatalf("post-corruption body differs:\nwant: %s\ngot:  %s", coldBody, body)
	}
}

func TestGarbageStateFileRecovers(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFile), []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newStatefulDaemon(t, Config{StateDir: dir})
	code, hdr, _ := postJSON(t, ts.URL+"/v1/analyze", analyzeBody(srcLoop))
	if code != 200 || hdr.Get("Delinq-Cache") != "miss" {
		t.Fatalf("garbage state: code=%d cache=%q", code, hdr.Get("Delinq-Cache"))
	}
}

func TestUndecodableEntrySkipped(t *testing.T) {
	// A structurally valid WAL record whose value is not a v1
	// cachedResponse must be skipped (and trigger a boot compaction),
	// not served.
	dir := t.TempDir()
	s1, _ := newStatefulDaemon(t, Config{StateDir: dir})
	s1.state.wal.Append("bogus-key", []byte{0xFF, 0x00, 0x01})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Shutdown(ctx)

	s2, _ := newStatefulDaemon(t, Config{StateDir: dir})
	if n := s2.state.badDecode.Load(); n != 1 {
		t.Fatalf("badDecode = %d, want 1", n)
	}
	if n := s2.state.bootCompacts.Load(); n != 1 {
		t.Fatalf("bootCompacts = %d, want 1", n)
	}
}

func TestEvictionDuringReplayCompacts(t *testing.T) {
	// The durable log holds more entries than the restarted daemon's
	// caps allow: replay seeds what fits, evicts the rest, and the boot
	// compaction shrinks the log to the survivors.
	dir := t.TempDir()
	s1, ts1 := newStatefulDaemon(t, Config{StateDir: dir})
	for i := 0; i < 6; i++ {
		src := strings.Replace(srcLoop, "20000", fmt.Sprintf("2%04d", i), 1)
		code, _, _ := postJSON(t, ts1.URL+"/v1/analyze", analyzeBody(src))
		if code != 200 {
			t.Fatalf("fill %d failed", i)
		}
	}
	bigLog := s1.state.wal.Size()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Shutdown(ctx)

	s2, _ := newStatefulDaemon(t, Config{StateDir: dir, CacheEntries: 2})
	if got := s2.cache.Stats().Entries; got != 2 {
		t.Fatalf("cache entries after capped replay = %d, want 2", got)
	}
	if n := s2.cache.Stats().EvictedSize; n != 4 {
		t.Fatalf("evicted while seeding = %d, want 4", n)
	}
	if s2.state.bootCompacts.Load() != 1 {
		t.Fatal("capped replay did not boot-compact")
	}
	if s2.state.wal.Size() >= bigLog {
		t.Fatalf("boot compaction did not shrink the log: %d -> %d", bigLog, s2.state.wal.Size())
	}
}

func TestEvictionCompactsSteadyState(t *testing.T) {
	// With a tiny cache and a tiny compaction threshold, churn must
	// trigger a steady-state compaction and the log must track the live
	// set, not the full history.
	dir := t.TempDir()
	s, ts := newStatefulDaemon(t, Config{StateDir: dir, CacheEntries: 2})
	s.state.compactDead = 3
	for i := 0; i < 12; i++ {
		src := strings.Replace(srcLoop, "20000", fmt.Sprintf("2%04d", i), 1)
		if code, _, _ := postJSON(t, ts.URL+"/v1/analyze", analyzeBody(src)); code != 200 {
			t.Fatalf("fill %d failed", i)
		}
	}
	if s.state.compactions.Load() == 0 {
		t.Fatal("churn never compacted the log")
	}
	if s.state.wal.Generation() < 2 {
		t.Fatalf("generation = %d, want >= 2", s.state.wal.Generation())
	}
}

func TestStateAppendFailureDoesNotFailRequest(t *testing.T) {
	dir := t.TempDir()
	_, ts := newStatefulDaemon(t, Config{StateDir: dir})
	plan := faultinject.NewPlan(1)
	plan.Arm(faultinject.WALWrite, "rescache")
	faultinject.Install(plan)
	defer faultinject.Clear()
	code, hdr, _ := postJSON(t, ts.URL+"/v1/analyze", analyzeBody(srcLoop))
	if code != 200 || hdr.Get("Delinq-Cache") != "miss" {
		t.Fatalf("append-failure request: code=%d cache=%q", code, hdr.Get("Delinq-Cache"))
	}
}

func TestOpenStateNoopWithoutDir(t *testing.T) {
	s := New(Config{})
	if err := s.OpenState(); err != nil {
		t.Fatalf("OpenState without StateDir: %v", err)
	}
	if s.state != nil {
		t.Fatal("state attached without a StateDir")
	}
}

func TestEncodeDecodeCachedResponse(t *testing.T) {
	cr := &cachedResponse{contentType: "application/json", body: []byte(`{"x":1}` + "\n")}
	got, ok := decodeCachedResponse(encodeCachedResponse(cr))
	if !ok || got.contentType != cr.contentType || string(got.body) != string(cr.body) {
		t.Fatalf("round trip: %+v ok=%v", got, ok)
	}
	for _, bad := range [][]byte{
		nil,
		{},
		{persistVersion - 1, 1, 0, 0, 0, 'x'}, // older answer format
		{persistVersion, 255, 255, 255, 255, 'x'}, // ctLen overruns
		{persistVersion, 0, 0, 0, 0},              // empty content type
		encodeCachedResponse(cr)[:3],              // truncated
	} {
		if _, ok := decodeCachedResponse(bad); ok {
			t.Fatalf("decode accepted %v", bad)
		}
	}
}

// TestOlderAnswerFormatRecomputes: a record an older build rendered
// (answer format 1, here a /v1/run body from before benchmark runs
// captured their output) is not replayed after an upgrade. The
// restarted daemon recomputes the answer, and the boot compaction drops
// the record.
func TestOlderAnswerFormatRecomputes(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := wal.Open(filepath.Join(dir, stateFile), wal.Options{Name: "rescache"})
	if err != nil {
		t.Fatal(err)
	}
	const ct = "application/json"
	stale := append([]byte{1, byte(len(ct)), 0, 0, 0}, ct...)
	stale = append(stale, `{"exit":0,"output":""}`+"\n"...)
	if err := w.Append(runCacheKey(runRequest{Source: srcLoop}), stale); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := newStatefulDaemon(t, Config{StateDir: dir})
	code, hdr, body := postJSON(t, ts.URL+"/v1/run", `{"source": `+jsonString(srcLoop)+`}`)
	fresh := workerpool.Execute(context.Background(), workerpool.Job{Kind: workerpool.JobRun, Source: srcLoop})
	if code != 200 || hdr.Get("Delinq-Cache") != "miss" {
		t.Fatalf("restart on an older answer format: code=%d cache=%q body=%s", code, hdr.Get("Delinq-Cache"), body)
	}
	if body != string(fresh.Body) {
		t.Fatalf("body = %s, want the fresh answer %s", body, fresh.Body)
	}
	if n := s.state.badDecode.Load(); n != 1 {
		t.Errorf("badDecode = %d, want 1", n)
	}
	if n := s.state.bootCompacts.Load(); n != 1 {
		t.Errorf("bootCompacts = %d, want 1", n)
	}
}

// answerDigests records, per persistVersion, the SHA-256 of the answers
// TestAnswerFormatPinned renders.
var answerDigests = map[int]string{
	2: "07ede35a7cff3bc1fba99c1326d717087fecaf8ada89e266caff2aa046d2d0e3",
}

// TestAnswerFormatPinned hashes fixed ad-hoc and benchmark analyze and
// run answers, rendered as the daemon renders them, and the committed
// table goldens, which pin every /v1/table body. When the digest no
// longer matches the one recorded for persistVersion, an answer's bytes
// changed and records of the current version would replay stale bytes
// after an upgrade.
func TestAnswerFormatPinned(t *testing.T) {
	h := sha256.New()
	for _, job := range []workerpool.Job{
		{Kind: workerpool.JobAnalyze, Source: srcLoop},
		{Kind: workerpool.JobRun, Source: srcLoop},
		{Kind: workerpool.JobRun, Benchmark: "181.mcf"},
	} {
		res := workerpool.Execute(context.Background(), job)
		if res.Status != 200 {
			t.Fatalf("%+v: status %d: %s", job, res.Status, res.Err)
		}
		h.Write(res.Body)
	}
	for _, golden := range []string{"tables_output.txt", "tables_inter.txt", "tables_isa.txt"} {
		b, err := os.ReadFile(filepath.Join("..", "..", golden))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), answerDigests[persistVersion]; got != want {
		t.Fatalf("answer digest %s, recorded for persistVersion %d: %q; "+
			"an answer's bytes changed: bump persistVersion and record the new digest", got, persistVersion, want)
	}
}
