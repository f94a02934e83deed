// Package arm is the second backend: a two-operand ARM-like ISA with
// explicit compare state, pre/post-indexed word addressing, and no
// globals register. It exists to test the paper's claim that the
// register-usage heuristic identifies delinquent loads from compiled
// code shape rather than from any one ISA: the address-pattern lattice
// must survive a machine where global accesses materialise absolute
// addresses (no $gp leaves) and pointer walks update their base
// register inside the load itself.
//
// The backend has no separate code generator: minic always emits MIPS
// text, and LowerImage rewrites an assembled MIPS image into ARM
// instructions (two-operand expansion, compare/branch splitting,
// constant materialisation through the ip scratch register, and a
// pre/post-index peephole). Register indices are shared with MIPS;
// only roles and spellings differ — r28, MIPS's $gp, becomes the
// call-clobbered scratch register ip.
package arm

import "delinq/internal/isa"

// ip is the scratch register the lowering uses to materialise
// constants and out-of-range addresses. It occupies the index MIPS
// reserves for $gp, which the ARM backend has no other use for.
const ip = isa.Reg(28)

type machine struct{}

// M is the ARM machine description.
var M isa.Machine = machine{}

func init() { isa.Register(M) }

func (machine) Name() string        { return "arm" }
func (machine) Zero() isa.Reg       { return 0 }
func (machine) SP() isa.Reg         { return 29 }
func (machine) FP() isa.Reg         { return 30 }
func (machine) RA() isa.Reg         { return 31 }
func (machine) GP() (isa.Reg, bool) { return 0, false }

// The lists the analyses read per function are built once.
var (
	argRegs = []isa.Reg{4, 5, 6, 7}
	retRegs = []isa.Reg{2, 3}
	// The MIPS caller-saved set at the same indices, plus ip: callees
	// rematerialise through it freely.
	callClobbered = []isa.Reg{
		2, 3, 4, 5, 6, 7,
		8, 9, 10, 11, 12, 13, 14, 15,
		24, 25, 1, ip, 31,
	}
)

func (machine) ArgRegs() []isa.Reg       { return argRegs }
func (machine) RetRegs() []isa.Reg       { return retRegs }
func (machine) CallClobbered() []isa.Reg { return callClobbered }

func (machine) TempRegs() []isa.Reg {
	return []isa.Reg{8, 9, 10, 11, 12, 13, 14, 15, 24, 25}
}

func (machine) SavedRegs() []isa.Reg {
	return []isa.Reg{16, 17, 18, 19, 20, 21, 22, 23}
}

func (machine) RegName(r isa.Reg) string { return isa.ARMRegName(r) }

func (machine) Encode(i isa.Inst) (uint32, error)    { return Encode(i) }
func (machine) Decode(word uint32) (isa.Inst, error) { return Decode(word) }
