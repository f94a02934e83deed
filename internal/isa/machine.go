package isa

import (
	"fmt"
	"sort"
	"sync"
)

// Machine describes one instruction-set backend: its register roles and
// classes, its calling convention, and its binary encoding. The
// analysis packages (cfg, dataflow, pattern, classify, ...) consult a
// Machine instead of hardcoding any one ISA, so a second backend is a
// new description rather than a new analysis.
//
// Registers are shared indices 0-31 across backends; what differs is
// which index plays which role and how it is spelled. A backend with no
// small-data globals register reports that through GP's second result,
// and the pattern lattice then simply never produces GP leaves for it.
// The register lists a Machine returns may be shared: callers must not
// modify them.
type Machine interface {
	// Name is the backend's canonical lowercase name ("mips", "arm").
	Name() string

	// Register roles.
	Zero() Reg            // hardwired zero register
	SP() Reg              // stack pointer
	FP() Reg              // frame pointer
	RA() Reg              // return-address register
	GP() (Reg, bool)      // globals/small-data base, if the ISA has one
	ArgRegs() []Reg       // integer argument registers, in order
	RetRegs() []Reg       // integer return-value registers, in order
	TempRegs() []Reg      // caller-saved allocatable temporaries
	SavedRegs() []Reg     // callee-saved allocatable registers
	CallClobbered() []Reg // registers a call may overwrite

	// RegName spells an integer register in the backend's assembly
	// syntax ("$sp" on MIPS, "sp" on ARM).
	RegName(r Reg) string

	// Encode and Decode translate between the shared Inst form and the
	// backend's 32-bit machine words. Every backend must round-trip:
	// Decode(Encode(i)) == i for any i it can encode.
	Encode(i Inst) (uint32, error)
	Decode(word uint32) (Inst, error)
}

var (
	machinesMu sync.RWMutex
	machines   = map[string]Machine{}
)

// Register adds a backend to the registry; backends call it from init.
// Registering two machines under one name panics: it is a programming
// error, not a runtime condition.
func Register(m Machine) {
	machinesMu.Lock()
	defer machinesMu.Unlock()
	if _, dup := machines[m.Name()]; dup {
		panic(fmt.Sprintf("isa: duplicate machine %q", m.Name()))
	}
	machines[m.Name()] = m
}

// ByName resolves a backend by name. The empty string resolves to
// "mips", the original ISA, so images from before machine descriptions
// existed keep decoding.
func ByName(name string) (Machine, error) {
	if name == "" {
		name = "mips"
	}
	machinesMu.RLock()
	defer machinesMu.RUnlock()
	m, ok := machines[name]
	if !ok {
		return nil, fmt.Errorf("isa: unknown machine %q (have %v)", name, namesLocked())
	}
	return m, nil
}

func namesLocked() []string {
	out := make([]string, 0, len(machines))
	for n := range machines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
