// Package mips is the original MIPS-like backend, packaged as a
// machine description: the o32 register convention the shared isa
// constants spell, the R/I/J/COP1 binary formats, and the $gp globals
// register. See package isa for the shared instruction representation.
package mips

import "delinq/internal/isa"

// machine is the MIPS o32 description. One stateless value serves the
// whole process.
type machine struct{}

// M is the MIPS machine description.
var M isa.Machine = machine{}

func init() { isa.Register(M) }

// callClobbered is built once: the analyses read it per function.
var callClobbered = []isa.Reg{
	isa.V0, isa.V1, isa.A0, isa.A1, isa.A2, isa.A3,
	isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.T6, isa.T7,
	isa.T8, isa.T9, isa.AT, isa.RA,
}

func (machine) Name() string                         { return "mips" }
func (machine) GP() (isa.Reg, bool)                  { return isa.GP, true }
func (machine) CallClobbered() []isa.Reg             { return callClobbered }
func (machine) Decode(word uint32) (isa.Inst, error) { return Decode(word) }
