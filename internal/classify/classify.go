// Package classify implements the paper's heuristic for static
// delinquent-load identification (Sections 5 and 7): the decision
// criteria H1–H5 over address patterns, the aggregate classes AG1–AG9
// with their weights (Table 5), the heuristic function φ, and the
// delinquency threshold δ.
package classify

import (
	"fmt"

	"delinq/internal/pattern"
)

// AggClass identifies one of the nine aggregate classes of Table 5.
type AggClass int

const (
	AG1 AggClass = iota + 1 // sp and gp both used (H1)
	AG2                     // sp used two or more times, no gp (H1)
	AG3                     // multiplication or shift present (H2)
	AG4                     // one level of dereferencing (H3)
	AG5                     // two levels of dereferencing (H3)
	AG6                     // three or more levels of dereferencing (H3)
	AG7                     // recurrence present (H4)
	AG8                     // seldom executed: 100–1000 times (H5)
	AG9                     // rarely executed: fewer than 100 times (H5)

	NumAggClasses = 9
)

// String returns "AG1"…"AG9".
func (c AggClass) String() string { return fmt.Sprintf("AG%d", int(c)) }

// Feature returns the class's description as given in Table 5.
func (c AggClass) Feature() string {
	switch c {
	case AG1:
		return "sp, gp"
	case AG2:
		return "sp more than 2 times"
	case AG3:
		return "multiplication/shifts"
	case AG4:
		return "dereferenced once"
	case AG5:
		return "dereferenced twice"
	case AG6:
		return "dereferenced thrice"
	case AG7:
		return "recurrent"
	case AG8:
		return "seldom executed"
	case AG9:
		return "rarely executed"
	}
	return "?"
}

// Weights assigns a weight to each aggregate class; index by AggClass.
type Weights [NumAggClasses + 1]float64

// PaperWeights returns the weights the authors trained (Table 5).
func PaperWeights() Weights {
	var w Weights
	w[AG1] = 0.28
	w[AG2] = 0.33
	w[AG3] = 0.47
	w[AG4] = 0.16
	w[AG5] = 0.67
	w[AG6] = 1.72
	w[AG7] = 0.10
	w[AG8] = -0.20
	w[AG9] = -0.40
	return w
}

// Features summarises one address pattern for classification.
type Features struct {
	SP       int  // stack-pointer occurrences
	GP       int  // global-pointer occurrences
	Param    int  // argument-register occurrences
	Ret      int  // call-result occurrences
	MulShift bool // multiplication or shift present (H2)
	Deref    int  // maximum dereference nesting (H3)
	Rec      bool // recurrence present (H4)
}

// FeaturesOf extracts the classification features of a pattern.
func FeaturesOf(p *pattern.Expr) Features {
	return Features{
		SP:       p.CountSP(),
		GP:       p.CountGP(),
		Param:    p.CountParam(),
		Ret:      p.CountRet(),
		MulShift: p.HasMulOrShift(),
		Deref:    p.MaxDeref(),
		Rec:      p.HasRecurrence(),
	}
}

// PatternClasses returns the structural aggregate classes (AG1–AG7) a
// pattern belongs to. Frequency classes (AG8/AG9) are per-load, not
// per-pattern; see FreqClass.
func PatternClasses(f Features) []AggClass {
	var out []AggClass
	if f.SP >= 1 && f.GP >= 1 {
		out = append(out, AG1)
	}
	if f.SP >= 2 && f.GP == 0 {
		out = append(out, AG2)
	}
	if f.MulShift {
		out = append(out, AG3)
	}
	switch {
	case f.Deref == 1:
		out = append(out, AG4)
	case f.Deref == 2:
		out = append(out, AG5)
	case f.Deref >= 3:
		out = append(out, AG6)
	}
	if f.Rec {
		out = append(out, AG7)
	}
	return out
}

// Frequency thresholds of criterion H5.
const (
	// RareBelow: loads executed fewer than this many times are "rarely
	// executed" (AG9).
	RareBelow = 100
	// SeldomBelow: loads executed in [RareBelow, SeldomBelow) are
	// "seldom executed" (AG8).
	SeldomBelow = 1000
)

// FreqClass returns the frequency class (AG8, AG9 or 0 for neither)
// given a load's execution count.
func FreqClass(exec int64) AggClass {
	switch {
	case exec < RareBelow:
		return AG9
	case exec < SeldomBelow:
		return AG8
	}
	return 0
}

// Config parameterises the heuristic.
type Config struct {
	// Weights for the aggregate classes; zero value means PaperWeights.
	Weights *Weights
	// Delta is the delinquency threshold δ; a load with φ > Delta is
	// reported possibly delinquent. The paper uses 0.10.
	Delta float64
	// UseFrequency enables the AG8/AG9 negative classes, which require
	// an execution profile (Table 11 reports both settings).
	UseFrequency bool
	// Pattern selects the pattern analysis: the zero value is the
	// paper's flat per-function one; Interprocedural asks for the
	// whole-program summary analysis instead.
	Pattern pattern.Config
}

// DefaultConfig returns the configuration used for the paper's headline
// numbers: trained weights, δ = 0.10, frequency classes enabled.
func DefaultConfig() Config {
	w := PaperWeights()
	return Config{Weights: &w, Delta: 0.10, UseFrequency: true}
}

// Scored is one load with its heuristic score.
type Scored struct {
	Load *pattern.Load
	// Exec is the load's execution count from the profile (0 without).
	Exec int64
	// Phi is the heuristic value φ(i).
	Phi float64
	// Classes is the union of aggregate classes over all patterns
	// (including the frequency class), for reporting.
	Classes []AggClass
	// Delinquent reports φ(i) > δ.
	Delinquent bool
}

// ExecProfile supplies per-instruction execution counts (basic-block
// profiling). A nil profile means counts are unavailable.
type ExecProfile interface {
	ExecCount(pc uint32) int64
}

// Score applies the heuristic to every load. prof may be nil when
// cfg.UseFrequency is false.
func Score(loads []*pattern.Load, prof ExecProfile, cfg Config) []*Scored {
	w := cfg.Weights
	if w == nil {
		pw := PaperWeights()
		w = &pw
	}
	var out []*Scored
	for _, ld := range loads {
		s := &Scored{Load: ld}
		if prof != nil {
			s.Exec = prof.ExecCount(ld.PC)
		}
		var freq AggClass
		if cfg.UseFrequency && prof != nil {
			freq = FreqClass(s.Exec)
		}
		union := map[AggClass]bool{}
		// φ(i) = max over the load's patterns of the summed weights of
		// the classes the pattern belongs to.
		first := true
		for _, p := range ld.Patterns {
			classes := PatternClasses(FeaturesOf(p))
			if freq != 0 {
				classes = append(classes, freq)
			}
			sum := 0.0
			for _, c := range classes {
				sum += w[c]
				union[c] = true
			}
			if first || sum > s.Phi {
				s.Phi = sum
				first = false
			}
		}
		for c := AG1; c <= AG9; c++ {
			if union[c] {
				s.Classes = append(s.Classes, c)
			}
		}
		s.Delinquent = s.Phi > cfg.Delta
		out = append(out, s)
	}
	return out
}

// Delinquent filters the scored loads down to the reported set Δ.
func Delinquent(scored []*Scored) []*Scored {
	var out []*Scored
	for _, s := range scored {
		if s.Delinquent {
			out = append(out, s)
		}
	}
	return out
}

// DeltaSet returns the reported set Δ as a PC set, ready for
// metrics.Evaluate.
func DeltaSet(scored []*Scored) map[uint32]bool {
	out := map[uint32]bool{}
	for _, s := range scored {
		if s.Delinquent {
			out[s.Load.PC] = true
		}
	}
	return out
}
