// Package faultinject provides a deterministic, seedable fault plan for
// the experiment pipeline. Each pipeline seam (compile, pattern
// analysis, simulation, trace replay, worker pool) consults the
// installed plan by a (Point, target) pair — the target is usually a
// benchmark name — and, when armed, deliberately fails in a
// stage-characteristic way: a corrupted image, a failed pattern
// analysis, a collapsed instruction budget, flipped trace bytes, or a
// panic inside a worker. Degradation paths become testable instead of
// theoretical: the chaos test arms every point and asserts the pipeline
// survives with per-benchmark isolation.
//
// With no plan installed every helper is a cheap no-op, so seams cost
// one atomic load on the fault-free path. All randomness derives from
// the plan seed plus the seam identity, so a fixed seed produces
// byte-identical degraded output run after run.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Point identifies one pipeline seam where a fault can be armed.
type Point int

const (
	// CorruptImage corrupts the assembled obj.Image (out-of-range entry
	// point plus seed-dependent text/data damage) before validation.
	CorruptImage Point = iota
	// PatternBudget makes address-pattern analysis fail before it runs,
	// so the build fails at the pattern stage.
	PatternBudget
	// SimBudget collapses the VM instruction budget so simulation fails
	// with the budget-exhausted fault almost immediately.
	SimBudget
	// TraceFlip flips bytes in an encoded trace stream during replay.
	TraceFlip
	// WorkerPanic panics inside the experiment worker's computation,
	// exercising panic recovery in the memo layer and the worker pool.
	WorkerPanic
	// WALWrite fires inside a durable-state append, before the record
	// bytes reach the file: error mode fails the append; lethal mode
	// writes half the record and kills the process, leaving a torn tail.
	WALWrite
	// WALFsync fires between writing a record and syncing it: error mode
	// fails the append after the bytes landed; lethal mode dies with the
	// record unsynced.
	WALFsync
	// WALRename fires in compaction between writing the snapshot temp
	// file and renaming it over the log: error mode fails the compaction
	// (temp removed, old log intact); lethal mode dies with both files
	// on disk, which recovery must resolve in favour of the old log.
	WALRename
	// WALReplay fires while replaying a log at open: error mode drops
	// the unread remainder (those entries recompute); lethal mode dies
	// mid-replay, before any state was handed to the consumer.
	WALReplay
	// WorkerSpawn fires in the worker pool's supervisor as it is about
	// to start a sandbox subprocess: the spawn fails before fork/exec
	// and the request fails at the worker stage without burning a
	// process.
	WorkerSpawn
	// WorkerSend fires as the supervisor writes a request frame to a
	// worker's stdin, simulating a broken pipe: the worker is destroyed.
	// A worker taken from the idle list is replaced by one fresh worker
	// that gets the same job; on a fresh worker the request fails at the
	// worker stage.
	WorkerSend
	// WorkerRecv fires after the supervisor read a worker's response
	// frame: the response is discarded as torn, the worker destroyed.
	WorkerRecv
	// WorkerKill SIGKILLs the worker subprocess mid-request, right after
	// the request frame was sent: the supervisor observes an EOF where
	// the response should be — the chaos storm's mid-request slaughter.
	WorkerKill
	numPoints
)

var pointNames = [numPoints]string{
	"image", "pattern", "sim", "trace", "worker",
	"wal:write", "wal:fsync", "wal:rename", "wal:replay",
	"worker:spawn", "worker:send", "worker:recv", "worker:kill",
}

// String returns the point's spec name ("image", "pattern", "sim",
// "trace", "worker").
func (p Point) String() string {
	if p >= 0 && int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "point(" + strconv.Itoa(int(p)) + ")"
}

// PointByName resolves a spec name to its Point.
func PointByName(name string) (Point, bool) {
	for i, n := range pointNames {
		if n == name {
			return Point(i), true
		}
	}
	return 0, false
}

// Fault is both the error a fault-injected seam reports and the value an
// injected panic carries, so recovery sites and tests can recognise
// deliberate faults with errors.As or Injected.
type Fault struct {
	Point  Point
	Target string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: %s fault armed for %s", f.Point, f.Target)
}

// Injected reports whether err originates from the fault injector.
func Injected(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// Plan is a deterministic set of armed fault points. The zero target
// count semantics: Arm fires on every query, ArmN on the first n.
// "*" as a target matches any queried target.
type Plan struct {
	seed   int64
	lethal atomic.Bool
	mu     sync.Mutex
	arms   map[string]int // point\x00target -> remaining fires (-1 = unlimited)
}

// NewPlan returns an empty plan with the given seed. The seed drives
// every derived random stream (image corruption, byte flips), so equal
// seeds produce equal degraded output.
func NewPlan(seed int64) *Plan {
	return &Plan{seed: seed, arms: map[string]int{}}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() int64 { return p.seed }

// SetLethal switches the plan's disk seams (the wal:* points) between
// error mode (the default: an armed seam reports an injected error) and
// lethal mode, where an armed seam kills the process with SIGKILL in
// the middle of the I/O operation. Lethal mode exists for the crash-
// recovery matrix: a subprocess armed with a lethal plan really dies
// mid-write, and the parent asserts the store recovers. The CLI arms it
// via the DELINQ_FAULT_LETHAL=1 environment hook.
func (p *Plan) SetLethal(v bool) { p.lethal.Store(v) }

// Lethal reports whether the installed plan's disk seams kill the
// process instead of returning errors. False when no plan is installed.
func Lethal() bool {
	p := active.Load()
	return p != nil && p.lethal.Load()
}

func armKey(pt Point, target string) string { return pt.String() + "\x00" + target }

// Arm makes the (point, target) seam fire on every query. Target "*"
// matches every target.
func (p *Plan) Arm(pt Point, target string) {
	p.mu.Lock()
	p.arms[armKey(pt, target)] = -1
	p.mu.Unlock()
}

// ArmN makes the (point, target) seam fire on the first n queries only;
// later queries pass through. Used to test that a failure is not
// memoised: the request after the last firing must succeed.
func (p *Plan) ArmN(pt Point, target string, n int) {
	p.mu.Lock()
	p.arms[armKey(pt, target)] = n
	p.mu.Unlock()
}

// take consumes one firing if the seam is armed for target (exact match
// first, then the "*" wildcard).
func (p *Plan) take(pt Point, target string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, key := range [2]string{armKey(pt, target), armKey(pt, "*")} {
		n, ok := p.arms[key]
		if !ok || n == 0 {
			continue
		}
		if n > 0 {
			p.arms[key] = n - 1
		}
		return true
	}
	return false
}

// ParsePlan builds a plan from a compact spec: comma-separated
// "point=target" pairs, each optionally suffixed "#n" to fire only the
// first n times. Points are named image, pattern, sim, trace, worker;
// the target "*" arms every target. Example:
//
//	sim=181.mcf,worker=130.li,pattern=008.espresso#1
func ParsePlan(spec string, seed int64) (*Plan, error) {
	p := NewPlan(seed)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, target, ok := strings.Cut(part, "=")
		if !ok || target == "" {
			return nil, fmt.Errorf("faultinject: bad spec entry %q (want point=target)", part)
		}
		pt, ok := PointByName(name)
		if !ok {
			return nil, fmt.Errorf("faultinject: unknown fault point %q (valid: %s)",
				name, strings.Join(pointNames[:], ", "))
		}
		if base, count, hasN := strings.Cut(target, "#"); hasN {
			n, err := strconv.Atoi(count)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("faultinject: bad fire count in %q", part)
			}
			p.ArmN(pt, base, n)
		} else {
			p.Arm(pt, target)
		}
	}
	return p, nil
}

// The installed plan. An atomic pointer keeps the disarmed fast path at
// a single load.
var active atomic.Pointer[Plan]

// Install makes p the active plan for every seam; nil disarms.
func Install(p *Plan) { active.Store(p) }

// Clear disarms all seams.
func Clear() { active.Store(nil) }

// Active returns the installed plan, or nil.
func Active() *Plan { return active.Load() }

// Fires reports whether the seam is armed for target, consuming one
// firing. The fault-free path is one atomic load.
func Fires(pt Point, target string) bool {
	p := active.Load()
	return p != nil && p.take(pt, target)
}

// Error returns a *Fault error if the seam fires, else nil.
func Error(pt Point, target string) error {
	if Fires(pt, target) {
		return &Fault{Point: pt, Target: target}
	}
	return nil
}

// Crash panics with a *Fault if the seam fires. The panic is the whole
// point: it exercises the pipeline's recovery paths (memo layer, worker
// pool, renderer); it is unreachable unless a plan deliberately arms
// this seam.
func Crash(pt Point, target string) {
	if Fires(pt, target) {
		panic(&Fault{Point: pt, Target: target})
	}
}

// Rand returns a deterministic random stream derived from the plan seed
// and the seam identity, or nil when no plan is installed. Equal
// (seed, point, target) triples always yield the same stream.
func Rand(pt Point, target string) *rand.Rand {
	p := active.Load()
	if p == nil {
		return nil
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", p.seed, pt, target)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Reader wraps r with a deterministic byte-flipper if the seam fires;
// otherwise it returns r unchanged.
func Reader(pt Point, target string, r io.Reader) io.Reader {
	if !Fires(pt, target) {
		return r
	}
	rng := Rand(pt, target)
	period := 17 + rng.Intn(48)
	return &flipReader{r: r, period: period, bit: byte(1 << rng.Intn(8))}
}

// flipReader flips one bit of every period-th byte it passes through.
type flipReader struct {
	r      io.Reader
	n      int
	period int
	bit    byte
}

func (f *flipReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	for i := 0; i < n; i++ {
		f.n++
		if f.n%f.period == 0 {
			p[i] ^= f.bit
		}
	}
	return n, err
}
