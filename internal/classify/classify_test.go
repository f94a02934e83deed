package classify

import (
	"context"
	"math"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/disasm"
	"delinq/internal/pattern"
)

func analyzeLoads(t *testing.T, src string) []*pattern.Load {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := pattern.AnalyzeProgramCtx(context.Background(), p, pattern.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return loads
}

type fixedProfile map[uint32]int64

func (p fixedProfile) ExecCount(pc uint32) int64 { return p[pc] }

func TestPaperWeights(t *testing.T) {
	w := PaperWeights()
	want := map[AggClass]float64{
		AG1: 0.28, AG2: 0.33, AG3: 0.47, AG4: 0.16, AG5: 0.67,
		AG6: 1.72, AG7: 0.10, AG8: -0.20, AG9: -0.40,
	}
	for c, v := range want {
		if w[c] != v {
			t.Errorf("weight %v = %v, want %v", c, w[c], v)
		}
	}
}

func TestPatternClassMembership(t *testing.T) {
	cases := []struct {
		f    Features
		want []AggClass
	}{
		{Features{SP: 1}, nil},
		{Features{SP: 1, GP: 1}, []AggClass{AG1}},
		{Features{SP: 2}, []AggClass{AG2}},
		{Features{SP: 3, GP: 1}, []AggClass{AG1}},
		{Features{MulShift: true}, []AggClass{AG3}},
		{Features{Deref: 1}, []AggClass{AG4}},
		{Features{Deref: 2}, []AggClass{AG5}},
		{Features{Deref: 3}, []AggClass{AG6}},
		{Features{Deref: 7}, []AggClass{AG6}},
		{Features{Rec: true}, []AggClass{AG7}},
		{Features{SP: 2, MulShift: true, Deref: 1, Rec: true},
			[]AggClass{AG2, AG3, AG4, AG7}},
	}
	for _, c := range cases {
		got := PatternClasses(c.f)
		if len(got) != len(c.want) {
			t.Errorf("PatternClasses(%+v) = %v, want %v", c.f, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PatternClasses(%+v) = %v, want %v", c.f, got, c.want)
			}
		}
	}
}

func TestFreqClass(t *testing.T) {
	cases := []struct {
		exec int64
		want AggClass
	}{
		{0, AG9}, {99, AG9}, {100, AG8}, {999, AG8}, {1000, 0}, {1 << 30, 0},
	}
	for _, c := range cases {
		if got := FreqClass(c.exec); got != c.want {
			t.Errorf("FreqClass(%d) = %v, want %v", c.exec, got, c.want)
		}
	}
}

func TestScoreArrayLoadDelinquent(t *testing.T) {
	loads := analyzeLoads(t, `
main:
	lw $t0, 4($sp)
	sll $t1, $t0, 2
	addiu $t2, $sp, 16
	add $t3, $t2, $t1
	lw $v0, 0($t3)
	jr $ra
`)
	prof := fixedProfile{}
	for _, ld := range loads {
		prof[ld.PC] = 1e6 // hot
	}
	scored := Score(loads, prof, DefaultConfig())
	var scalar, array *Scored
	for _, s := range scored {
		f := FeaturesOf(s.Load.Patterns[0])
		if f.Deref == 0 && !f.MulShift {
			scalar = s
		} else {
			array = s
		}
	}
	if scalar == nil || array == nil {
		t.Fatalf("loads not found: %+v", scored)
	}
	// Scalar stack load: sp=1 only -> phi 0 -> not delinquent.
	if scalar.Delinquent || scalar.Phi != 0 {
		t.Errorf("scalar load = phi %v, delinquent %v", scalar.Phi, scalar.Delinquent)
	}
	// Array load: AG2 (sp=2) + AG3 (shift) + AG4 (deref 1) = 0.96.
	if !array.Delinquent {
		t.Errorf("array load not delinquent: phi = %v", array.Phi)
	}
	if math.Abs(array.Phi-0.96) > 1e-9 {
		t.Errorf("array phi = %v, want 0.96", array.Phi)
	}
	wantClasses := []AggClass{AG2, AG3, AG4}
	if len(array.Classes) != 3 {
		t.Fatalf("classes = %v", array.Classes)
	}
	for i, c := range wantClasses {
		if array.Classes[i] != c {
			t.Errorf("classes = %v, want %v", array.Classes, wantClasses)
		}
	}
}

func TestFrequencyFilterSuppressesColdLoads(t *testing.T) {
	loads := analyzeLoads(t, `
main:
	lw $t0, 4($sp)
	sll $t1, $t0, 2
	addiu $t2, $sp, 16
	add $t3, $t2, $t1
	lw $v0, 0($t3)
	jr $ra
`)
	prof := fixedProfile{}
	for _, ld := range loads {
		prof[ld.PC] = 10 // rarely executed
	}
	cfg := DefaultConfig()
	scored := Score(loads, prof, cfg)
	for _, s := range scored {
		f := FeaturesOf(s.Load.Patterns[0])
		if f.MulShift {
			// 0.96 - 0.40 = 0.56: still above delta; the filter moves
			// marginal loads only. Drop AG4 case: with phi 0.16 the
			// AG9 penalty flips it.
			if math.Abs(s.Phi-0.56) > 1e-9 {
				t.Errorf("cold array load phi = %v, want 0.56", s.Phi)
			}
		}
	}
	// Without frequency classes the same load keeps its full score.
	cfg.UseFrequency = false
	scored = Score(loads, prof, cfg)
	for _, s := range scored {
		if FeaturesOf(s.Load.Patterns[0]).MulShift && math.Abs(s.Phi-0.96) > 1e-9 {
			t.Errorf("phi without freq = %v, want 0.96", s.Phi)
		}
	}
}

func TestMarginalLoadFlippedByFrequency(t *testing.T) {
	// A single-deref load (AG4, phi=0.16) is delinquent when hot but
	// suppressed when rare (0.16-0.40 < 0.10).
	loads := analyzeLoads(t, `
main:
	lw $t0, 4($sp)
	lw $v0, 0($t0)
	jr $ra
`)
	var target *pattern.Load
	for _, ld := range loads {
		if FeaturesOf(ld.Patterns[0]).Deref == 1 {
			target = ld
		}
	}
	if target == nil {
		t.Fatal("no single-deref load")
	}
	hot := fixedProfile{target.PC: 1e6}
	cold := fixedProfile{target.PC: 5}
	cfg := DefaultConfig()
	for _, s := range Score([]*pattern.Load{target}, hot, cfg) {
		if !s.Delinquent {
			t.Errorf("hot AG4 load not delinquent: phi=%v", s.Phi)
		}
	}
	for _, s := range Score([]*pattern.Load{target}, cold, cfg) {
		if s.Delinquent {
			t.Errorf("cold AG4 load delinquent: phi=%v", s.Phi)
		}
	}
}

func TestPhiIsMaxOverPatterns(t *testing.T) {
	// Join producing two patterns: one plain gp access (phi 0), one
	// double-deref chain (phi high). Max must win.
	loads := analyzeLoads(t, `
main:
	beq $a0, $zero, other
	addiu $t0, $gp, 8
	b go
other:
	lw $t1, 4($sp)
	lw $t0, 0($t1)
go:
	lw $v0, 12($t0)
	jr $ra
`)
	var target *Scored
	for _, s := range Score(loads, nil, Config{Delta: 0.10, UseFrequency: false}) {
		if len(s.Load.Patterns) >= 2 {
			target = s
		}
	}
	if target == nil {
		t.Fatal("no multi-pattern load found")
	}
	// Best pattern: deref 2 (p loaded from stack then dereferenced)
	// = AG5 (0.67).
	if math.Abs(target.Phi-0.67) > 1e-9 {
		t.Errorf("phi = %v, want max pattern score 0.67", target.Phi)
	}
}

func TestDelinquentFilter(t *testing.T) {
	s := []*Scored{{Delinquent: true}, {Delinquent: false}, {Delinquent: true}}
	if got := Delinquent(s); len(got) != 2 {
		t.Errorf("Delinquent kept %d", len(got))
	}
}

func TestDeltaSet(t *testing.T) {
	ld := func(pc uint32) *pattern.Load { return &pattern.Load{PC: pc} }
	s := []*Scored{
		{Load: ld(0x10), Delinquent: true},
		{Load: ld(0x14), Delinquent: false},
		{Load: ld(0x18), Delinquent: true},
	}
	got := DeltaSet(s)
	if len(got) != 2 || !got[0x10] || !got[0x18] || got[0x14] {
		t.Errorf("DeltaSet = %v, want {0x10, 0x18}", got)
	}
}

func TestH1Classes(t *testing.T) {
	cases := []struct {
		f    Features
		want int
	}{
		{Features{GP: 1}, 1},
		{Features{GP: 2}, 2},
		{Features{GP: 3}, 3},
		{Features{SP: 1}, 4},
		{Features{SP: 1, GP: 1}, 5},
		{Features{SP: 1, GP: 2}, 6},
		{Features{SP: 2}, 7},
		{Features{SP: 2, GP: 1}, 8},
		{Features{SP: 3}, 9},
		{Features{SP: 3, GP: 1}, 10},
		{Features{SP: 4}, 11},
		{Features{SP: 4, GP: 3}, 12},
		{Features{SP: 5}, 13},
		{Features{SP: 6, GP: 3}, 14},
		{Features{}, 15},
		{Features{SP: 7}, 15},
		{Features{GP: 4}, 15},
		{Features{SP: 2, GP: 2}, 15},
	}
	for _, c := range cases {
		if got := H1Class(c.f); got != c.want {
			t.Errorf("H1Class(%+v) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestH1Feature(t *testing.T) {
	cases := map[int]string{
		1:  "gp=1",
		4:  "sp=1",
		5:  "sp=1, gp=1",
		14: "sp=6, gp=3",
		15: "any others",
	}
	for idx, want := range cases {
		if got := H1Feature(idx); got != want {
			t.Errorf("H1Feature(%d) = %q, want %q", idx, got, want)
		}
	}
}

func TestAllClassesAndLoadClasses(t *testing.T) {
	all := AllClasses()
	// 15 H1 + 2 H2 + 6 H3 + 2 H4 + 3 H5 = 28.
	if len(all) != 28 {
		t.Errorf("AllClasses = %d, want 28", len(all))
	}
	seen := map[ClassID]bool{}
	for _, c := range all {
		if seen[c] {
			t.Errorf("duplicate class %v", c)
		}
		seen[c] = true
	}

	loads := analyzeLoads(t, `
main:
	lw $t0, 4($sp)
	sll $t1, $t0, 2
	addiu $t2, $sp, 16
	add $t3, $t2, $t1
	lw $v0, 0($t3)
	jr $ra
`)
	var arr *pattern.Load
	for _, ld := range loads {
		if FeaturesOf(ld.Patterns[0]).MulShift {
			arr = ld
		}
	}
	classes := LoadClasses(arr, 500)
	want := map[ClassID]bool{
		{H1, 7}: true, {H2, H2MulShift}: true, {H3, 1}: true,
		{H4, 0}: true, {H5, H5Seldom}: true,
	}
	if len(classes) != len(want) {
		t.Fatalf("LoadClasses = %v", classes)
	}
	for _, c := range classes {
		if !want[c] {
			t.Errorf("unexpected class %v in %v", c, classes)
		}
	}
	// H5 follows FreqClass at its thresholds.
	for exec, h5 := range map[int64]int{99: H5Rare, 100: H5Seldom, 999: H5Seldom, 1000: H5Fair} {
		classes := LoadClasses(arr, exec)
		if got := classes[len(classes)-1]; got != (ClassID{H5, h5}) {
			t.Errorf("LoadClasses(exec=%d) H5 class = %v, want H5.%d", exec, got, h5)
		}
	}
}

func TestStringers(t *testing.T) {
	if AG3.String() != "AG3" || AG3.Feature() != "multiplication/shifts" {
		t.Error("AG3 stringers wrong")
	}
	if (ClassID{H1, 5}).String() != "H1.5" {
		t.Error("ClassID stringer wrong")
	}
	for c := AG1; c <= AG9; c++ {
		if c.Feature() == "?" {
			t.Errorf("%v has no feature text", c)
		}
	}
}
