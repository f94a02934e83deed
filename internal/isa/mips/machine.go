// Package mips is the original MIPS-like backend, packaged as a
// machine description: the o32 register convention, the R/I/J/COP1
// binary formats, and the role map the analysis packages consult
// instead of hardcoding MIPS register numbers. See package isa for the
// shared instruction representation.
package mips

import "delinq/internal/isa"

// machine is the MIPS o32 description. One stateless value serves the
// whole process.
type machine struct{}

// M is the MIPS machine description.
var M isa.Machine = machine{}

func init() { isa.Register(M) }

func (machine) Name() string        { return "mips" }
func (machine) Zero() isa.Reg       { return isa.Zero }
func (machine) SP() isa.Reg         { return isa.SP }
func (machine) FP() isa.Reg         { return isa.FP }
func (machine) RA() isa.Reg         { return isa.RA }
func (machine) GP() (isa.Reg, bool) { return isa.GP, true }

// The lists the analyses read per function are built once.
var (
	argRegs       = []isa.Reg{isa.A0, isa.A1, isa.A2, isa.A3}
	retRegs       = []isa.Reg{isa.V0, isa.V1}
	callClobbered = []isa.Reg{
		isa.V0, isa.V1, isa.A0, isa.A1, isa.A2, isa.A3,
		isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.T6, isa.T7,
		isa.T8, isa.T9, isa.AT, isa.RA,
	}
)

func (machine) ArgRegs() []isa.Reg       { return argRegs }
func (machine) RetRegs() []isa.Reg       { return retRegs }
func (machine) CallClobbered() []isa.Reg { return callClobbered }

func (machine) TempRegs() []isa.Reg {
	return []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.T6, isa.T7, isa.T8, isa.T9}
}

func (machine) SavedRegs() []isa.Reg {
	return []isa.Reg{isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7}
}

func (machine) RegName(r isa.Reg) string { return isa.RegName(r) }

func (machine) Encode(i isa.Inst) (uint32, error)    { return Encode(i) }
func (machine) Decode(word uint32) (isa.Inst, error) { return Decode(word) }
