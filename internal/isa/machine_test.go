package isa_test

import (
	"strings"
	"testing"

	"delinq/internal/isa"
	_ "delinq/internal/isa/arm"
	"delinq/internal/isa/mips"
)

// TestByName: the registry resolves both backends, the empty name
// canonically to mips, and an unknown name to an error listing them.
func TestByName(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"", "mips"}, {"mips", "mips"}, {"arm", "arm"},
	} {
		if got := isa.Canonical(c.name); got != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.name, got, c.want)
		}
		if m, err := isa.ByName(c.name); err != nil || m.Name() != c.want {
			t.Errorf("ByName(%q) = %v, %v; want the %s machine", c.name, m, err, c.want)
		}
	}
	if got := isa.Canonical("sparc"); got != "sparc" {
		t.Errorf(`Canonical("sparc") = %q`, got)
	}
	_, err := isa.ByName("sparc")
	if err == nil || !strings.Contains(err.Error(), `unknown machine "sparc" (have [arm mips])`) {
		t.Errorf(`ByName("sparc") error = %v, want one listing arm and mips`, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("registering mips twice did not panic")
		}
	}()
	isa.Register(mips.M)
}
