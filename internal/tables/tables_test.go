package tables

import (
	"context"
	"strings"
	"testing"

	"delinq/internal/bench"
	"delinq/internal/classify"
)

func TestStdGeomsValid(t *testing.T) {
	for _, g := range StdGeoms {
		if err := g.Validate(); err != nil {
			t.Errorf("geometry %v invalid: %v", g, err)
		}
	}
	if StdGeoms[GeomTraining].Sets() != 256 {
		t.Errorf("training geometry has %d sets, want 256 (Section 6)",
			StdGeoms[GeomTraining].Sets())
	}
	if StdGeoms[GeomBaseline].SizeBytes != 8*1024 {
		t.Error("baseline geometry is not 8KB")
	}
}

func TestByIDUnknown(t *testing.T) {
	for _, id := range []string{"99", "x", "all", "s9", ""} {
		if _, err := ByID(id); err == nil {
			t.Errorf("ByID(%q) succeeded", id)
		}
		if canon, err := CanonicalID(id); err == nil {
			t.Errorf("CanonicalID(%q) = %q, want an error", id, canon)
		}
	}
}

// TestIDsCoverEveryTable: every id of the default sweep, and S4 and S5,
// resolves to itself, and the extension tables also in lower case.
func TestIDsCoverEveryTable(t *testing.T) {
	ids := IDs()
	if len(ids) != 17 { // 14 paper tables + extensions S1-S3
		t.Fatalf("IDs = %v", ids)
	}
	for _, id := range append(ids, "S4", "S5") {
		if canon, err := CanonicalID(id); err != nil || canon != id {
			t.Errorf("CanonicalID(%s) = %q, %v", id, canon, err)
		}
		if lower := strings.ToLower(id); lower != id {
			if canon, err := CanonicalID(lower); err != nil || canon != id {
				t.Errorf("CanonicalID(%s) = %q, %v; want %s", lower, canon, err, id)
			}
		}
	}
}

func TestTable6Static(t *testing.T) {
	tab, err := ByID("6")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 18 {
		t.Errorf("Table 6 rows = %d, want 18", len(tab.Rows))
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 6.", "181.mcf", "input_ref", "Input 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRenderAlignment(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "test",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"veryverylong", "b"}, {"s", "t"}},
		Notes:  "hello",
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	if !strings.HasPrefix(lines[0], "Table x. test") {
		t.Errorf("title line = %q", lines[0])
	}
	// Column 2 must start at the same offset in header and rows.
	h := strings.Index(lines[1], "long-header")
	r := strings.Index(lines[3], "b")
	if h != r {
		t.Errorf("misaligned columns: header at %d, row at %d\n%s", h, r, sb.String())
	}
	if !strings.Contains(sb.String(), "note: hello") {
		t.Error("notes missing")
	}
}

func TestTrainedWeightsSane(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in short mode")
	}
	rep, err := TrainedReport()
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Weights
	// Structural sanity mirrored from the paper: positive weights for
	// the structural classes that fire in the suite, strictly negative
	// frequency classes with AG8 = AG9/2.
	for _, agg := range []classify.AggClass{classify.AG1, classify.AG3, classify.AG4, classify.AG5, classify.AG7} {
		if w[agg] <= 0 {
			t.Errorf("weight %v = %v, want positive", agg, w[agg])
		}
	}
	if w[classify.AG9] >= 0 || w[classify.AG8] >= 0 {
		t.Errorf("frequency weights not negative: AG8=%v AG9=%v",
			w[classify.AG8], w[classify.AG9])
	}
	if diff := w[classify.AG8]*2 - w[classify.AG9]; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("AG8 != AG9/2: %v vs %v", w[classify.AG8], w[classify.AG9])
	}
	// The second training call must be memoised to the same report.
	rep2, err := TrainedReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep != rep2 {
		t.Error("TrainedReport not memoised")
	}
}

func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in short mode")
	}
	// The paper's headline: ~10% of loads cover >90% of misses, and the
	// baselines need far more loads for the same coverage.
	eng := Engine{}
	cfg, err := eng.HeuristicConfig(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	var pi, rho float64
	n := 0
	for _, b := range bench.All() {
		ctx, err := eng.Load(context.Background(), b, false, false)
		if err != nil {
			t.Fatal(err)
		}
		ev := evaluateDelta(ctx, cfg)
		pi += ev.Pi
		rho += ev.Rho
		n++
	}
	pi /= float64(n)
	rho /= float64(n)
	if pi < 0.03 || pi > 0.20 {
		t.Errorf("average pi = %.1f%%, want roughly 10%%", 100*pi)
	}
	if rho < 0.85 {
		t.Errorf("average rho = %.1f%%, want > 85%%", 100*rho)
	}
}

func evaluateDelta(ctx *Ctx, cfg classify.Config) (ev struct{ Pi, Rho float64 }) {
	e, err := Engine{}.start(context.Background()).piRho(ctx, GeomBaseline, cfg.UseFrequency)
	if err != nil {
		return ev
	}
	ev.Pi, ev.Rho = e.Pi, e.Rho
	return ev
}

func TestTable5AgainstPaperStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in short mode")
	}
	tab, err := ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("Table 5 rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if row[0] != classify.AggClass(i+1).String() {
			t.Errorf("row %d class = %s", i, row[0])
		}
	}
}

func TestTable3ListsAllH1Classes(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in short mode")
	}
	tab, err := ByID("3")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != classify.NumH1Classes {
		t.Errorf("Table 3 rows = %d, want %d", len(tab.Rows), classify.NumH1Classes)
	}
}
