// The golden-output guard: the parallel experiment engine must change
// no table cell. tables_output.txt is the committed rendering of every
// table; regenerating the full sweep through the concurrent engine has
// to reproduce it byte for byte.
package delinq

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"testing"

	"delinq/internal/tables"
)

// TestTableInterGolden pins the interprocedural comparison table (S4),
// which is rendered on demand rather than as part of the default sweep:
// the committed tables_inter.txt must be reproduced byte for byte.
func TestTableInterGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark sweep in short mode")
	}
	want, err := os.ReadFile("tables_inter.txt")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := tables.ByID("S4")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tab.Render(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("table S4 diverges from tables_inter.txt:\n%s", got.Bytes())
	}
}

func TestTableAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep in short mode")
	}
	want, err := os.ReadFile("tables_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	degs, err := tables.Engine{}.Render(context.Background(), &got, runtime.GOMAXPROCS(0), "all")
	if err != nil {
		t.Fatal(err)
	}
	if len(degs) != 0 {
		t.Fatalf("fault-free sweep reported degradations: %v", degs)
	}
	if !bytes.Equal(got.Bytes(), want) {
		// Locate the first divergent line for a readable failure.
		gl := bytes.Split(got.Bytes(), []byte("\n"))
		wl := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("table output diverges from tables_output.txt at line %d:\ngot:  %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("table output length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
