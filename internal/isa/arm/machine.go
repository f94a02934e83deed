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
// pre/post-index peephole). Register indices and their roles are shared
// with MIPS; only spellings differ, and r28, MIPS's $gp, becomes the
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

// callClobbered is the MIPS caller-saved set at the same indices, plus
// ip: callees rematerialise through it freely. It is built once: the
// analyses read it per function.
var callClobbered = []isa.Reg{
	isa.V0, isa.V1, isa.A0, isa.A1, isa.A2, isa.A3,
	isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.T6, isa.T7,
	isa.T8, isa.T9, isa.AT, ip, isa.RA,
}

func (machine) Name() string                         { return "arm" }
func (machine) GP() (isa.Reg, bool)                  { return 0, false }
func (machine) CallClobbered() []isa.Reg             { return callClobbered }
func (machine) Decode(word uint32) (isa.Inst, error) { return Decode(word) }
