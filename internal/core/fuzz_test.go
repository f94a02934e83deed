package core

import (
	"errors"
	"testing"

	"delinq/internal/obj"
)

// fuzzLowerProg is a small program whose encoded image seeds the
// lowering fuzzer with every section populated: text with loads,
// stores, globals, a call, and branches; data; bss; symbols.
const fuzzLowerProg = `
int g[64];
int sum(int n) {
	int i; int s = 0;
	for (i = 0; i < n; i++) s = s + g[i];
	return s;
}
int main() {
	int i;
	for (i = 0; i < 64; i++) g[i] = i;
	print_int(sum(64));
	return 0;
}
`

// FuzzLowerImageBytes is the hardening contract for the machine-
// description boundary: any byte string that decodes into an image —
// however mangled its contents — must either lower to arm or fail
// with a StageError. No input may panic the lowerer, and no failure
// may escape the pipeline's error taxonomy.
func FuzzLowerImageBytes(f *testing.F) {
	img, err := BuildSourceISA(fuzzLowerProg, false, "")
	if err != nil {
		f.Fatal(err)
	}
	if b, err := img.Encode(); err == nil {
		f.Add(b)
		// Truncations and bit flips of a valid encoding are the
		// torn-file shapes the decoder sees after a crash.
		f.Add(b[:len(b)/2])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x13, 0x37})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<16 {
			return
		}
		im, err := obj.DecodeImage(b)
		if err != nil {
			return // decoder rejection is FuzzDecodeImage's territory
		}
		lowered, err := LowerImage(im, "arm")
		if err != nil {
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("lowering failure is not a StageError: %v", err)
			}
			if se.Stage != StageLower {
				t.Fatalf("lowering failure at stage %q, want %q: %v", se.Stage, StageLower, err)
			}
			return
		}
		if lowered.ISAName() != "arm" {
			t.Fatalf("lowered image reports ISA %q", lowered.ISAName())
		}
	})
}
