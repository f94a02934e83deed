package tables

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"delinq/internal/bench"
	"delinq/internal/core"
	"delinq/internal/faultinject"
)

// withPlan installs a fault plan and isolates the memos for one test.
func withPlan(t *testing.T, p *faultinject.Plan) {
	t.Helper()
	bench.ResetCache()
	faultinject.Install(p)
	t.Cleanup(func() {
		faultinject.Clear()
		bench.ResetCache()
	})
}

func TestDegradedRowShape(t *testing.T) {
	d := &Degradation{Benchmark: "181.mcf", Stage: core.StageSimulate}
	row := degradedRow(d, 5)
	want := []string{"181.mcf", "DEGRADED(simulate)", "-", "-", "-"}
	if len(row) != len(want) {
		t.Fatalf("row = %v", row)
	}
	for i := range want {
		if row[i] != want[i] {
			t.Errorf("row[%d] = %q, want %q", i, row[i], want[i])
		}
	}
}

func TestLoadSafeQuarantines(t *testing.T) {
	name := "126.gcc" // held-out: degrading it cannot disturb training
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.SimBudget, name)
	withPlan(t, p)

	cb := Combo{Bench: bench.ByName(name), Geoms: StdGeoms}
	r := Engine{}.start(context.Background())
	c, deg := r.run(cb)
	if c != nil || deg == nil {
		t.Fatalf("load = %v, %v; want quarantine", c, deg)
	}
	if deg.Benchmark != name || deg.Stage != core.StageSimulate {
		t.Errorf("degradation = %+v", deg)
	}
	if !strings.Contains(deg.String(), "degraded at simulate stage") {
		t.Errorf("String() = %q", deg.String())
	}

	// Second call short-circuits on the quarantine — even with the fault
	// cleared, the quarantine holds for the rest of the render.
	faultinject.Clear()
	c2, deg2 := r.run(cb)
	if c2 != nil || deg2 != deg {
		t.Errorf("short-circuit returned %v, %v; want the original entry", c2, deg2)
	}
	if got := r.q.list(); len(got) != 1 || got[0] != deg {
		t.Errorf("quarantine = %v", got)
	}

	// A new render re-evaluates: the benchmark is healthy again.
	fresh := Engine{}.start(context.Background())
	c3, deg3 := fresh.run(cb)
	if c3 == nil || deg3 != nil {
		t.Errorf("load in a new render = %v, %v", c3, deg3)
	}
	if got := fresh.q.list(); len(got) != 0 {
		t.Errorf("new render's quarantine = %v, want empty", got)
	}
}

func TestRecordFirstWinsAndStageDefault(t *testing.T) {
	q := Engine{}.start(context.Background()).q
	first := q.record("x", core.WrapStage("x", core.StagePattern, errors.New("a")))
	second := q.record("x", core.WrapStage("x", core.StageSimulate, errors.New("b")))
	if first != second || first.Stage != core.StagePattern {
		t.Errorf("first-wins violated: %+v vs %+v", first, second)
	}
	d := q.record("y", errors.New("stageless"))
	if d.Stage != core.StageWorker {
		t.Errorf("stageless error recorded as %s, want worker", d.Stage)
	}
}

// TestTimeoutDegrades drives a real table benchmark through an
// impossibly small deadline and expects quarantine, not a hang or a
// render error. The deadline belongs to that engine: a zero engine
// loads the same benchmark.
func TestTimeoutDegrades(t *testing.T) {
	bench.ResetCache()
	t.Cleanup(bench.ResetCache)

	cb := Combo{Bench: bench.ByName("126.gcc"), Geoms: StdGeoms}
	c, deg := Engine{Timeout: time.Nanosecond}.start(context.Background()).run(cb)
	if c != nil || deg == nil {
		t.Fatalf("load under 1ns deadline = %v, %v", c, deg)
	}
	if !errors.Is(deg.Err, context.DeadlineExceeded) {
		t.Errorf("degradation cause = %v, want deadline exceeded", deg.Err)
	}
	if c, deg := (Engine{}).start(context.Background()).run(cb); c == nil || deg != nil {
		t.Errorf("load on a zero engine = %v, %v", c, deg)
	}
}

// TestTrainingTimeoutNotMemoised: a learning phase whose every training
// benchmark timed out trains on nothing, and those weights serve only
// that call. With the deadline lifted, the next render trains on the
// full set and Table 5 matches the golden table.
func TestTrainingTimeoutNotMemoised(t *testing.T) {
	if testing.Short() {
		t.Skip("training simulates every training benchmark")
	}
	bench.ResetCache()
	ResetTraining()
	t.Cleanup(func() {
		bench.ResetCache()
		ResetTraining()
	})

	r := Engine{Timeout: time.Nanosecond}.start(context.Background())
	if _, err := r.trainedReport(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.q.list()), len(bench.Training()); got != want {
		t.Fatalf("%d training benchmarks quarantined under a 1ns deadline, want %d", got, want)
	}

	var buf bytes.Buffer
	degs, err := Engine{}.Render(context.Background(), &buf, 0, "5")
	if err != nil {
		t.Fatal(err)
	}
	if len(degs) != 0 {
		t.Errorf("render on a zero engine degraded %v", degs)
	}
	if want := goldenTable(t, "5"); buf.String() != want {
		t.Errorf("Table 5 after the deadline lifted diverges from tables_output.txt:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// goldenTable returns table id's block of the committed
// tables_output.txt: its title line through the blank line ending it.
func goldenTable(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile("../../tables_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	start := strings.Index(s, "Table "+id+". ")
	if start < 0 {
		t.Fatalf("no Table %s in tables_output.txt", id)
	}
	return s[start : start+strings.Index(s[start:], "\n\n")+2]
}

// TestDegradedTableRender renders Table 10 (held-out benchmarks) with
// one benchmark's simulation sabotaged: the table must still render,
// carry a DEGRADED row for the victim, and normal rows for the rest.
func TestDegradedTableRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in short mode")
	}
	name := "126.gcc"
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.WorkerPanic, name)
	withPlan(t, p)

	var buf bytes.Buffer
	degs, err := Engine{}.Render(context.Background(), &buf, 0, "10")
	if err != nil {
		t.Fatalf("table render failed instead of degrading: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "DEGRADED(worker)") {
		t.Errorf("no DEGRADED row:\n%s", out)
	}
	if !strings.Contains(out, "300.twolf") {
		t.Errorf("healthy benchmarks missing:\n%s", out)
	}
	if len(degs) != 1 || degs[0].Benchmark != name {
		t.Errorf("degradations = %v", degs)
	}
}
