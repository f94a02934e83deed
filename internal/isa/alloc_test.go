//go:build !race

package isa

import "testing"

var defsSink []Reg

// TestDefsAllocatesNothing checks that Defs answers a one-register
// instruction from a shared table. The race detector allocates on its
// own account, so this holds only without it.
func TestDefsAllocatesNothing(t *testing.T) {
	in := Inst{Op: ADDIU, Rt: T3, Rs: SP, Imm: 8}
	if d := in.Defs(); len(d) != 1 || d[0] != T3 {
		t.Fatalf("Defs = %v", d)
	}
	if n := testing.AllocsPerRun(100, func() { defsSink = in.Defs() }); n != 0 {
		t.Errorf("Defs allocated %v times per call", n)
	}
}
