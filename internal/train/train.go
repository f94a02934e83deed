// Package train implements the paper's training phase (Section 7):
// computing per-class miss probabilities m_j(F,C) and miss shares
// n_j(F,C) over a set of training benchmarks, classifying classes as
// positive, negative or neutral by the strength index r = m/n, and
// deriving the aggregate-class weights used by the heuristic.
package train

import (
	"fmt"
	"slices"
	"sort"

	"delinq/internal/classify"
	"delinq/internal/pattern"
)

// LoadSample is one static load's training data under the training cache.
type LoadSample struct {
	PC      uint32
	Classes []classify.ClassID
	Aggs    []classify.AggClass
	Exec    int64
	Misses  int64
}

// Sample is one benchmark's training data.
type Sample struct {
	Name        string
	Loads       []LoadSample
	TotalMisses int64 // M(P(I), C) over loads
}

// NewSample builds one benchmark's training data from its loads, their
// execution counts (prof) and their misses under the training cache.
// Each load's aggregate classes are the ones classify.Score puts it in,
// frequency classes included, so training weighs exactly the classes
// that φ later sums.
func NewSample(name string, loads []*pattern.Load, prof classify.ExecProfile, misses func(pc uint32) int64) Sample {
	s := Sample{Name: name, Loads: make([]LoadSample, 0, len(loads))}
	for _, sc := range classify.Score(loads, prof, classify.Config{UseFrequency: true}) {
		m := misses(sc.Load.PC)
		s.TotalMisses += m
		s.Loads = append(s.Loads, LoadSample{
			PC:      sc.Load.PC,
			Classes: classify.LoadClasses(sc.Load, sc.Exec),
			Aggs:    sc.Classes,
			Exec:    sc.Exec,
			Misses:  m,
		})
	}
	return s
}

// The training thresholds.
const (
	// relevantM / relevantN: a benchmark is irrelevant to a class when
	// both m_j and n_j fall below these (1%).
	relevantM = 0.01
	relevantN = 0.01
	// strengthMin is the positive-class threshold on r = m/n. It is
	// 1/30 rather than the paper's 1/20: the synthetic workloads run on
	// proportionally smaller inputs, so per-class miss probabilities sit
	// slightly below SPEC'95 magnitudes; 1/30 preserves the paper's
	// positive/neutral split (see EXPERIMENTS.md, calibration notes).
	strengthMin = 1.0 / 30
	// negativeN marks a class negative when n_j stays below this in
	// every benchmark (paper: 0.50%).
	negativeN = 0.005
)

// Nature classifies a class's evidentiary value (Section 7.1).
type Nature int

const (
	Neutral Nature = iota
	Positive
	Negative
)

// String renders the nature.
func (n Nature) String() string {
	switch n {
	case Positive:
		return "positive"
	case Negative:
		return "negative"
	}
	return "neutral"
}

// BenchStat holds one class's statistics in one benchmark.
type BenchStat struct {
	Bench    string
	M        float64 // m_j(F, C)
	N        float64 // n_j(F, C)
	Found    bool    // any member loads
	Relevant bool
}

// ClassReport is the trained summary of one class: a criterion class
// (K is classify.ClassID) or an aggregate class (classify.AggClass).
type ClassReport[K comparable] struct {
	Class      K
	PerBench   []BenchStat
	FoundIn    int
	RelevantIn int
	Nature     Nature
	Weight     float64 // defined for positive classes
}

// Report is the full training outcome.
type Report struct {
	Classes []ClassReport[classify.ClassID]
	Aggs    []ClassReport[classify.AggClass]
	// Weights is ready to plug into classify.Config.
	Weights classify.Weights
}

// classStats computes per-benchmark m/n for an arbitrary membership
// predicate.
func classStats(samples []Sample, member func(*LoadSample) bool) (stats []BenchStat, found, relevant int) {
	for i := range samples {
		s := &samples[i]
		var exec, miss int64
		any := false
		for j := range s.Loads {
			if member(&s.Loads[j]) {
				any = true
				exec += s.Loads[j].Exec
				miss += s.Loads[j].Misses
			}
		}
		st := BenchStat{Bench: s.Name, Found: any}
		if exec > 0 {
			st.M = float64(miss) / float64(exec)
		}
		if s.TotalMisses > 0 {
			st.N = float64(miss) / float64(s.TotalMisses)
		}
		if any {
			found++
			// A benchmark is relevant to the class when the class both
			// misses often (m) and carries a real share of the misses
			// (n). The paper states the converse ("irrelevant when both
			// are below thresholds"); its Table 4 data is consistent
			// with the conjunctive reading used here, which is also the
			// one that keeps benchmarks with near-zero overall miss
			// rates from rendering dominant classes neutral.
			if st.M >= relevantM && st.N >= relevantN {
				st.Relevant = true
				relevant++
			}
		}
		stats = append(stats, st)
	}
	return stats, found, relevant
}

// natureAndWeight applies Section 7.1's rules.
func natureAndWeight(stats []BenchStat) (Nature, float64) {
	negative := true
	for _, st := range stats {
		if st.Found && st.N >= negativeN {
			negative = false
			break
		}
	}
	if negative {
		return Negative, 0
	}
	var sum float64
	var n int
	for _, st := range stats {
		if !st.Relevant {
			continue
		}
		if st.N == 0 || st.M/st.N < strengthMin {
			return Neutral, 0
		}
		sum += st.M / st.N
		n++
	}
	if n == 0 {
		return Neutral, 0
	}
	return Positive, sum / float64(n)
}

// reports trains each of classes, where of lists the classes a load
// belongs to.
func reports[K comparable](samples []Sample, classes []K, of func(*LoadSample) []K) []ClassReport[K] {
	out := make([]ClassReport[K], 0, len(classes))
	for _, k := range classes {
		stats, found, rel := classStats(samples, func(l *LoadSample) bool { return slices.Contains(of(l), k) })
		cr := ClassReport[K]{Class: k, PerBench: stats, FoundIn: found, RelevantIn: rel}
		cr.Nature, cr.Weight = natureAndWeight(stats)
		out = append(out, cr)
	}
	return out
}

// Train runs the full training phase over the benchmark samples.
func Train(samples []Sample) *Report {
	aggs := make([]classify.AggClass, 0, classify.NumAggClasses)
	for agg := classify.AG1; agg <= classify.AG9; agg++ {
		aggs = append(aggs, agg)
	}
	rep := &Report{
		// Per-criterion classes (Tables 3 and 4).
		Classes: reports(samples, classify.AllClasses(), func(l *LoadSample) []classify.ClassID { return l.Classes }),
		// Aggregate classes (Table 5).
		Aggs: reports(samples, aggs, func(l *LoadSample) []classify.AggClass { return l.Aggs }),
	}

	var positives []float64
	for i := range rep.Aggs {
		ar := &rep.Aggs[i]
		switch {
		case ar.Class >= classify.AG8:
			// Frequency classes are negative by construction (Section
			// 7.3): their weight comes from the positive weights below.
			ar.Nature = Negative
		case ar.Nature == Positive:
			positives = append(positives, ar.Weight)
			rep.Weights[ar.Class] = ar.Weight
		}
	}

	// Negative weights: the trimmed mean of the positive weights,
	// negated for AG9 and halved for AG8 (Section 7.3).
	neg := -trimmedMean(positives)
	rep.Weights[classify.AG9] = neg
	rep.Weights[classify.AG8] = neg / 2
	for i := range rep.Aggs {
		if agg := rep.Aggs[i].Class; agg >= classify.AG8 {
			rep.Aggs[i].Weight = rep.Weights[agg]
		}
	}
	return rep
}

// trimmedMean averages the values after dropping one highest and one
// lowest entry (when there are more than two).
func trimmedMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0.4 // the paper's fallback magnitude
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if len(sorted) > 2 {
		sorted = sorted[1 : len(sorted)-1]
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return sum / float64(len(sorted))
}

// find returns the report of class k in rs.
func find[K comparable](rs []ClassReport[K], k K) (*ClassReport[K], bool) {
	for i := range rs {
		if rs[i].Class == k {
			return &rs[i], true
		}
	}
	return nil, false
}

// ClassByID returns the report of one criterion class.
func (r *Report) ClassByID(id classify.ClassID) (*ClassReport[classify.ClassID], bool) {
	return find(r.Classes, id)
}

// AggByClass returns the report of one aggregate class.
func (r *Report) AggByClass(a classify.AggClass) (*ClassReport[classify.AggClass], bool) {
	return find(r.Aggs, a)
}

// String summarises the trained weights.
func (r *Report) String() string {
	s := "trained weights:"
	for agg := classify.AG1; agg <= classify.AG9; agg++ {
		s += fmt.Sprintf(" %v=%+.2f", agg, r.Weights[agg])
	}
	return s
}
