//go:build !race

package dataflow

import (
	"testing"

	"delinq/internal/isa"
)

// TestReachingAtAllocatesNothing checks that a query on a solved
// register appends into the caller's buffer without allocating. The
// race detector allocates on its own account, so this holds only
// without it.
func TestReachingAtAllocatesNothing(t *testing.T) {
	r := analyze(t, `
main:
	li $t0, 0
loop:
	addiu $t0, $t0, 4
	bne $t0, $a0, loop
	jr $ra
`, "main")
	var buf [4]Def
	var defs []Def
	if defs = r.ReachingAt(1, isa.T0, buf[:0]); len(defs) != 2 {
		t.Fatalf("defs = %+v", defs)
	}
	if n := testing.AllocsPerRun(100, func() { defs = r.ReachingAt(1, isa.T0, buf[:0]) }); n != 0 {
		t.Errorf("ReachingAt allocated %v times per call", n)
	}
}
