package train

import (
	"math"
	"testing"

	"delinq/internal/classify"
)

// mkSample builds a benchmark where loads in class `hot` miss heavily
// and loads in class `cold` barely miss.
func mkSample(name string, hot, cold classify.ClassID, hotAgg, coldAgg classify.AggClass) Sample {
	s := Sample{Name: name}
	// 10 hot loads: high miss probability, most of the misses.
	for i := 0; i < 10; i++ {
		s.Loads = append(s.Loads, LoadSample{
			PC:      uint32(i * 4),
			Classes: []classify.ClassID{hot},
			Aggs:    []classify.AggClass{hotAgg},
			Exec:    10000,
			Misses:  3000,
		})
	}
	// 90 cold loads.
	for i := 10; i < 100; i++ {
		s.Loads = append(s.Loads, LoadSample{
			PC:      uint32(i * 4),
			Classes: []classify.ClassID{cold},
			Aggs:    []classify.AggClass{coldAgg},
			Exec:    10000,
			Misses:  1,
		})
	}
	for _, l := range s.Loads {
		s.TotalMisses += l.Misses
	}
	return s
}

func TestTrainPositiveAndNegative(t *testing.T) {
	hot := classify.ClassID{Crit: classify.H3, Idx: 2}
	cold := classify.ClassID{Crit: classify.H1, Idx: 4}
	samples := []Sample{
		mkSample("b1", hot, cold, classify.AG5, 0),
		mkSample("b2", hot, cold, classify.AG5, 0),
	}
	rep := Train(samples)

	hr, ok := rep.ClassByID(hot)
	if !ok || hr.Nature != Positive {
		t.Fatalf("hot class = %+v", hr)
	}
	if hr.FoundIn != 2 || hr.RelevantIn != 2 {
		t.Errorf("hot found/relevant = %d/%d", hr.FoundIn, hr.RelevantIn)
	}
	// m = 3000/10000 = 0.3; n = 30000/30090; r = m/n ≈ 0.30087.
	if math.Abs(hr.Weight-0.3009) > 0.001 {
		t.Errorf("hot weight = %v", hr.Weight)
	}

	cr, ok := rep.ClassByID(cold)
	if !ok || cr.Nature != Negative {
		t.Fatalf("cold class = %+v", cr)
	}

	// Aggregate AG5 trained positive; its weight lands in Weights.
	ar, ok := rep.AggByClass(classify.AG5)
	if !ok || ar.Nature != Positive {
		t.Fatalf("AG5 = %+v", ar)
	}
	if rep.Weights[classify.AG5] != ar.Weight {
		t.Error("weights table mismatch")
	}
}

func TestNegativeWeightRule(t *testing.T) {
	hot := classify.ClassID{Crit: classify.H3, Idx: 2}
	cold := classify.ClassID{Crit: classify.H1, Idx: 4}
	samples := []Sample{mkSample("b1", hot, cold, classify.AG5, 0)}
	rep := Train(samples)
	ag9 := rep.Weights[classify.AG9]
	ag8 := rep.Weights[classify.AG8]
	if ag9 >= 0 || ag8 >= 0 {
		t.Fatalf("negative weights not negative: AG8=%v AG9=%v", ag8, ag9)
	}
	if math.Abs(ag8-ag9/2) > 1e-12 {
		t.Errorf("AG8 = %v, want half of AG9 = %v", ag8, ag9)
	}
	// One positive weight -> trimmed mean is that weight.
	if math.Abs(-ag9-rep.Weights[classify.AG5]) > 1e-9 {
		t.Errorf("AG9 = %v, want -%v", ag9, rep.Weights[classify.AG5])
	}
	// AG8/AG9 agg reports mirror the weights.
	if r, _ := rep.AggByClass(classify.AG9); r.Weight != ag9 || r.Nature != Negative {
		t.Errorf("AG9 report = %+v", r)
	}
}

func TestIrrelevantBenchmarkExcludedFromWeight(t *testing.T) {
	hot := classify.ClassID{Crit: classify.H3, Idx: 2}
	cold := classify.ClassID{Crit: classify.H1, Idx: 4}
	s1 := mkSample("strong", hot, cold, classify.AG5, 0)
	// A benchmark where the hot class exists but misses almost never:
	// m and n both < 1% -> irrelevant.
	s2 := Sample{Name: "weak"}
	s2.Loads = append(s2.Loads, LoadSample{
		PC: 0, Classes: []classify.ClassID{hot}, Aggs: []classify.AggClass{classify.AG5},
		Exec: 1e6, Misses: 10,
	})
	s2.Loads = append(s2.Loads, LoadSample{
		PC: 4, Classes: []classify.ClassID{cold}, Exec: 1e6, Misses: 1e5,
	})
	s2.TotalMisses = 10 + 1e5
	rep := Train([]Sample{s1, s2})
	hr, _ := rep.ClassByID(hot)
	if hr.FoundIn != 2 || hr.RelevantIn != 1 {
		t.Errorf("found/relevant = %d/%d, want 2/1", hr.FoundIn, hr.RelevantIn)
	}
	if hr.Nature != Positive {
		t.Errorf("nature = %v", hr.Nature)
	}
	// Weight computed from the strong benchmark only (r ≈ 0.3009).
	if math.Abs(hr.Weight-0.3009) > 0.001 {
		t.Errorf("weight = %v", hr.Weight)
	}
}

func TestNeutralClass(t *testing.T) {
	// A class relevant in one benchmark with r < 1/20: many misses in
	// share (high n) but low probability (low m).
	weakHot := classify.ClassID{Crit: classify.H2, Idx: classify.H2MulShift}
	s := Sample{Name: "b"}
	s.Loads = []LoadSample{
		// n = 0.9 (high), m = 0.9e-3 (low): r = 0.001 < 1/20.
		{PC: 0, Classes: []classify.ClassID{weakHot}, Exec: 1e6, Misses: 900},
		{PC: 4, Classes: []classify.ClassID{{Crit: classify.H1, Idx: 4}}, Exec: 100, Misses: 100},
	}
	s.TotalMisses = 1000
	rep := Train([]Sample{s})
	cr, _ := rep.ClassByID(weakHot)
	if cr.Nature != Neutral {
		t.Errorf("nature = %v (m=%v n=%v), want neutral",
			cr.Nature, cr.PerBench[0].M, cr.PerBench[0].N)
	}
}

func TestTrimmedMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0.4},
		{[]float64{0.5}, 0.5},
		{[]float64{0.2, 0.6}, 0.4},
		{[]float64{0.10, 0.16, 0.28, 0.33, 0.47, 0.67, 1.72}, (0.16 + 0.28 + 0.33 + 0.47 + 0.67) / 5},
	}
	for _, c := range cases {
		if got := trimmedMean(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("trimmedMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPaperNegativeWeightReproduced(t *testing.T) {
	// With the paper's positive weights, the rule yields ≈ -0.38,
	// which the authors rounded to -0.40.
	m := trimmedMean([]float64{0.28, 0.33, 0.47, 0.16, 0.67, 1.72, 0.10})
	if math.Abs(m-0.382) > 0.001 {
		t.Errorf("trimmed mean of paper weights = %v, want ≈0.382", m)
	}
}

func TestReportString(t *testing.T) {
	hot := classify.ClassID{Crit: classify.H3, Idx: 2}
	cold := classify.ClassID{Crit: classify.H1, Idx: 4}
	rep := Train([]Sample{mkSample("b", hot, cold, classify.AG5, 0)})
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

// TestPaperWeightExample verifies the weight formula against the worked
// example of Section 7.2: class 5's weight computed from the Table 4
// m/n values of the five relevant benchmarks,
// W(F5) = (4/48 + 6/25 + 30/67 + 6/6 + 8/13) / 5 ≈ 0.47.
func TestPaperWeightExample(t *testing.T) {
	table4 := []struct {
		bench    string
		m, n     float64 // percentages, as printed in the paper
		relevant bool
	}{
		{"099.go", 0.16, 0.13, false},
		{"147.vortex", 4.34, 48.19, true},
		{"164.gzip", 0.28, 0.03, false},
		{"175.vpr", 6.27, 25.14, true},
		{"179.art", 30.44, 67.17, true},
		{"183.equake", 6.83, 6.72, true},
		{"197.parser", 8.07, 13.17, true},
	}
	var stats []BenchStat
	for _, row := range table4 {
		stats = append(stats, BenchStat{
			Bench: row.bench, M: row.m / 100, N: row.n / 100,
			Found: true, Relevant: row.relevant,
		})
	}
	nature, w := natureAndWeight(stats)
	if nature != Positive {
		t.Fatalf("nature = %v, want positive", nature)
	}
	// The paper rounds the summands (4/48 etc.); exact arithmetic over
	// its printed values gives 0.466.
	if math.Abs(w-0.466) > 0.02 {
		t.Errorf("W(F5) = %v, want ≈0.47 (the paper's value)", w)
	}
}
