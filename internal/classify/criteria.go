package classify

import (
	"fmt"

	"delinq/internal/pattern"
)

// Criterion identifies one of the five decision criteria of Section 5.2.
type Criterion int

const (
	H1 Criterion = iota + 1 // register usage in the address pattern
	H2                      // type of operations in the address computation
	H3                      // maximum level of dereferencing
	H4                      // recurrence
	H5                      // execution frequency
)

// String returns "H1"…"H5".
func (c Criterion) String() string { return fmt.Sprintf("H%d", int(c)) }

// ClassID names one class of one criterion, as used by the training
// phase (Section 7).
type ClassID struct {
	Crit Criterion
	Idx  int
}

// String renders e.g. "H1.5".
func (c ClassID) String() string { return fmt.Sprintf("%v.%d", c.Crit, c.Idx) }

// Table 3's fifteen H1 classes, by exact occurrence counts of the stack
// and global pointers. Patterns using other basic registers (or neither
// pointer) fall into the merged class 15.
var h1Table = []struct{ sp, gp int }{
	1:  {0, 1},
	2:  {0, 2},
	3:  {0, 3},
	4:  {1, 0},
	5:  {1, 1},
	6:  {1, 2},
	7:  {2, 0},
	8:  {2, 1},
	9:  {3, 0},
	10: {3, 1},
	11: {4, 0},
	12: {4, 3},
	13: {5, 0},
	14: {6, 3},
}

// NumH1Classes is the class count of criterion H1 (Table 3).
const NumH1Classes = 15

// H1Class returns the Table 3 class index (1–15) of a pattern's
// register usage.
func H1Class(f Features) int {
	for i := 1; i < len(h1Table); i++ {
		if f.SP == h1Table[i].sp && f.GP == h1Table[i].gp {
			return i
		}
	}
	return 15
}

// H1Feature describes a class the way Table 3 does ("sp=1, gp=1").
func H1Feature(idx int) string {
	if idx <= 0 || idx >= NumH1Classes {
		return "any others"
	}
	e := h1Table[idx]
	switch {
	case e.sp == 0:
		return fmt.Sprintf("gp=%d", e.gp)
	case e.gp == 0:
		return fmt.Sprintf("sp=%d", e.sp)
	default:
		return fmt.Sprintf("sp=%d, gp=%d", e.sp, e.gp)
	}
}

// Class indices of the non-H1 criteria.
const (
	// H2: index 1 = multiplication or shift present, 0 = absent.
	H2MulShift = 1
	// H3: index is the dereference depth, saturated at MaxH3Level.
	MaxH3Level = 5
	// H4: index 1 = recurrent, 0 = not.
	H4Recurrent = 1
	// H5: 0 = rarely (FreqClass AG9), 1 = seldom (AG8), 2 = fair or more.
	H5Rare   = 0
	H5Seldom = 1
	H5Fair   = 2
)

// AllClasses enumerates every class of every criterion, for training.
func AllClasses() []ClassID {
	var out []ClassID
	for i := 1; i <= NumH1Classes; i++ {
		out = append(out, ClassID{H1, i})
	}
	out = append(out, ClassID{H2, 0}, ClassID{H2, H2MulShift})
	for d := 0; d <= MaxH3Level; d++ {
		out = append(out, ClassID{H3, d})
	}
	out = append(out, ClassID{H4, 0}, ClassID{H4, H4Recurrent})
	out = append(out, ClassID{H5, H5Rare}, ClassID{H5, H5Seldom}, ClassID{H5, H5Fair})
	return out
}

// LoadClasses returns every criterion class the load belongs to: a load
// is in a class when at least one of its address patterns has the
// class's property (plus its H5 frequency class).
func LoadClasses(ld *pattern.Load, exec int64) []ClassID {
	seen := map[ClassID]bool{}
	var out []ClassID
	add := func(c ClassID) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, p := range ld.Patterns {
		f := FeaturesOf(p)
		add(ClassID{H1, H1Class(f)})
		if f.MulShift {
			add(ClassID{H2, H2MulShift})
		} else {
			add(ClassID{H2, 0})
		}
		d := f.Deref
		if d > MaxH3Level {
			d = MaxH3Level
		}
		add(ClassID{H3, d})
		if f.Rec {
			add(ClassID{H4, H4Recurrent})
		} else {
			add(ClassID{H4, 0})
		}
	}
	switch FreqClass(exec) {
	case AG9:
		add(ClassID{H5, H5Rare})
	case AG8:
		add(ClassID{H5, H5Seldom})
	default:
		add(ClassID{H5, H5Fair})
	}
	return out
}
