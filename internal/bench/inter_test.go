package bench

import (
	"context"
	"testing"

	"delinq/internal/pattern"
)

// maxDeref returns the deepest dereference over all of a load's
// patterns.
func maxDeref(l *pattern.Load) int {
	d := 0
	for _, p := range l.Patterns {
		if m := p.MaxDeref(); m > d {
			d = m
		}
	}
	return d
}

// TestInterRaisesCrossCallDeref is the acceptance check for the
// interprocedural pipeline on a real pointer-chasing model: in the mcf
// and li benchmarks at least one load that the flat analysis scores at
// dereference depth 0 (its address hides behind an opaque call-boundary
// leaf) must gain depth >= 1 once function summaries resolve the call.
// Only the optimised builds are checked: -O0 parks arguments and call
// results in stack slots, so register promotion is what exposes the
// bare Param/Ret leaves in the first place.
func TestInterRaisesCrossCallDeref(t *testing.T) {
	for _, name := range []string{"181.mcf", "022.li"} {
		b := ByName(name)
		if b == nil {
			t.Fatalf("no benchmark %q", name)
		}
		bd, err := CompileISACtx(context.Background(), b, true, "")
		if err != nil {
			t.Fatal(err)
		}
		inter, err := LoadsInter(context.Background(), bd)
		if err != nil {
			t.Fatal(err)
		}
		if len(inter) != len(bd.Loads) {
			t.Fatalf("%s: load sets differ: %d vs %d", name, len(inter), len(bd.Loads))
		}
		raised := 0
		for i, l := range bd.Loads {
			if inter[i].PC != l.PC {
				t.Fatalf("%s: load order diverged at %d", name, i)
			}
			hasLeaf := false
			for _, p := range l.Patterns {
				if p.CountRet() > 0 || p.CountParam() > 0 {
					hasLeaf = true
					break
				}
			}
			if hasLeaf && maxDeref(l) == 0 && maxDeref(inter[i]) >= 1 {
				raised++
			}
		}
		if raised == 0 {
			t.Errorf("%s: no cross-call load raised from deref 0 to >=1", name)
		} else {
			t.Logf("%s: %d loads raised", name, raised)
		}
	}
}
