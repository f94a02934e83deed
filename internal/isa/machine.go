package isa

import (
	"fmt"
	"sort"
	"sync"
)

// Machine describes what one instruction-set backend does not share
// with the others: its name, its globals register, the registers its
// calls clobber, and how its machine words decode. Register indices
// 0-31 and their calling-convention roles are shared (the Reg constants
// SP, RA, A0-A3, V0-V1 and the rest), so the analysis packages name
// those directly and consult a Machine only for the differences; a
// second backend is a new description rather than a new analysis.
//
// A backend with no small-data globals register reports that through
// GP's second result, and the pattern lattice then simply never
// produces GP leaves for it. The list CallClobbered returns may be
// shared: callers must not modify it.
type Machine interface {
	// Name is the backend's canonical lowercase name ("mips", "arm").
	Name() string
	// GP is the globals/small-data base register, if the ISA has one.
	GP() (Reg, bool)
	// CallClobbered lists the registers a call may overwrite.
	CallClobbered() []Reg
	// Decode translates one of the backend's 32-bit machine words into
	// the shared Inst form.
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

// Canonical resolves a machine name as every image, request and key
// means it: the empty string is "mips", the original ISA, so images
// from before machine descriptions existed keep decoding. Any other
// name is returned unchanged.
func Canonical(name string) string {
	if name == "" {
		return "mips"
	}
	return name
}

// ByName resolves a backend by name, after Canonical.
func ByName(name string) (Machine, error) {
	name = Canonical(name)
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
