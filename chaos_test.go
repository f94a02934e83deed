// The chaos test: every fault point armed at once, on held-out
// benchmarks only, through the full table sweep. The pipeline must not
// let a panic escape, must quarantine exactly the sabotaged benchmarks
// at the expected stages, must leave every untouched benchmark's rows
// identical to the committed golden output, and must produce the same
// bytes on a second pass with the same plan seed.
package delinq

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"

	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/core"
	"delinq/internal/faultinject"
	"delinq/internal/tables"
	"delinq/internal/trace"
)

// chaosVictims maps each sabotaged held-out benchmark to the DEGRADED
// marker its armed fault must produce. Training benchmarks are never
// armed, so the trained weights — and with them every healthy row —
// are exactly the golden ones.
var chaosVictims = map[string]string{
	"022.li":      "DEGRADED(assemble)", // image corrupted before validation
	"072.sc":      "DEGRADED(pattern)",  // pattern analysis fails
	"101.tomcatv": "DEGRADED(simulate)", // instruction budget collapsed
	"126.gcc":     "DEGRADED(worker)",   // panic inside the memoised computation
}

func chaosPlan() *faultinject.Plan {
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.CorruptImage, "022.li")
	p.Arm(faultinject.PatternBudget, "072.sc")
	p.Arm(faultinject.SimBudget, "101.tomcatv")
	p.Arm(faultinject.WorkerPanic, "126.gcc")
	return p
}

// collapse canonicalises one rendered line so row comparisons survive
// the column-width reflow a DEGRADED cell causes.
func collapse(line string) string { return strings.Join(strings.Fields(line), " ") }

// benchRows extracts the collapsed row lines whose first field is one
// of the given benchmark names, in rendering order.
func benchRows(output string, names map[string]bool) []string {
	var out []string
	for _, line := range strings.Split(output, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && names[f[0]] {
			out = append(out, collapse(line))
		}
	}
	return out
}

func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweeps in short mode")
	}
	t.Cleanup(func() {
		faultinject.Clear()
		bench.ResetCache()
		tables.ResetTraining()
	})

	sweep := func() string {
		bench.ResetCache()
		tables.ResetTraining()
		faultinject.Install(chaosPlan())
		defer faultinject.Clear()
		var buf bytes.Buffer
		degs, err := tables.Engine{}.Render(context.Background(), &buf, runtime.GOMAXPROCS(0), "all")
		if err != nil {
			t.Fatalf("render under chaos: %v", err)
		}
		if len(degs) != len(chaosVictims) {
			t.Fatalf("degraded %d benchmarks, want %d: %v",
				len(degs), len(chaosVictims), degs)
		}
		for _, d := range degs {
			if _, ok := chaosVictims[d.Benchmark]; !ok {
				t.Errorf("unexpected degradation: %v", d)
			}
		}
		return buf.String()
	}

	first := sweep()

	// Every victim renders as a DEGRADED row at the expected stage, and
	// its fault never leaks numbers into a Load-driven table row.
	for name, marker := range chaosVictims {
		if !strings.Contains(first, name+" ") && !strings.Contains(first, name+"\n") {
			t.Errorf("victim %s vanished from the output", name)
		}
		found := false
		for _, line := range strings.Split(first, "\n") {
			f := strings.Fields(line)
			if len(f) >= 2 && f[0] == name && f[1] == marker {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q row for %s", marker, name)
		}
	}

	// Untouched benchmarks reproduce the golden rows cell for cell.
	golden, err := os.ReadFile("tables_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	untouched := map[string]bool{}
	for _, b := range bench.All() {
		if _, hit := chaosVictims[b.Name]; !hit {
			untouched[b.Name] = true
		}
	}
	wantRows := benchRows(string(golden), untouched)
	gotRows := benchRows(first, untouched)
	if len(wantRows) != len(gotRows) {
		t.Fatalf("untouched row count: got %d, want %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("untouched row diverged:\ngot:  %s\nwant: %s", gotRows[i], wantRows[i])
		}
	}

	// Determinism: a second cold pass with the same plan seed is
	// byte-identical, DEGRADED rows included.
	second := sweep()
	if first != second {
		fl, sl := strings.Split(first, "\n"), strings.Split(second, "\n")
		for i := 0; i < len(fl) && i < len(sl); i++ {
			if fl[i] != sl[i] {
				t.Fatalf("chaos output not deterministic at line %d:\nfirst:  %s\nsecond: %s",
					i+1, fl[i], sl[i])
			}
		}
		t.Fatal("chaos output not deterministic (length differs)")
	}
}

// TestChaosTraceFlip arms the trace-replay seam: a deterministically
// corrupted trace stream must never panic the replayer — it either
// reports a decode error or replays with (deterministically) different
// statistics.
func TestChaosTraceFlip(t *testing.T) {
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	for i := 0; i < 4096; i++ {
		tw.Add(0x1000+uint32(i%8)*4, uint32(i*24), i%5 == 0)
	}
	tw.Flush()
	enc := buf.Bytes()

	clean, err := trace.Replay(bytes.NewReader(enc), cache.Baseline)
	if err != nil {
		t.Fatal(err)
	}

	replay := func() ([]trace.ReplayStats, error) {
		p := faultinject.NewPlan(3)
		p.Arm(faultinject.TraceFlip, "replay")
		faultinject.Install(p)
		defer faultinject.Clear()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("replay of a flipped trace panicked: %v", r)
			}
		}()
		return core.ReplayTrace(bytes.NewReader(enc), cache.Baseline)
	}

	s1, err1 := replay()
	s2, err2 := replay()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("flipped replay not deterministic: %v vs %v", err1, err2)
	}
	if err1 != nil {
		if !errors.Is(err1, &core.StageError{Stage: core.StageTrace}) {
			t.Errorf("flipped replay error lacks trace-stage provenance: %v", err1)
		}
		return
	}
	if s1[0].Cache.Misses != s2[0].Cache.Misses || s1[0].Records != s2[0].Records {
		t.Errorf("flipped replay stats not deterministic: %+v vs %+v", s1[0], s2[0])
	}
	if s1[0].Records == clean[0].Records && s1[0].Cache.Misses == clean[0].Cache.Misses {
		t.Errorf("armed TraceFlip changed nothing: %+v", s1[0])
	}
}
