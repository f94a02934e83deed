package vm

import (
	"context"
	"errors"
	"testing"

	"delinq/internal/cache"
	"delinq/internal/isa"
	"delinq/internal/obj"
)

// loop emits a counted loop of iters iterations whose body is a
// multi-instruction block: a word load at rBase, a 4-byte step of rBase
// and the counter decrement, closed by a conditional branch back (on ARM
// a compare and a branch).
func (p *prog) loop(iters int) {
	p.li(rBase, obj.DataBase)
	p.li(rVal, uint32(iters))
	top := len(p.code)
	p.mem(isa.LW, rOut, rBase, 0)
	if p.arm {
		p.emit(isa.Inst{Op: isa.AADDI, Rd: rBase, Imm: 4})
		p.emit(isa.Inst{Op: isa.AADDI, Rd: rVal, Imm: -1})
		p.emit(isa.Inst{Op: isa.ACMPI, Rs: rVal, Imm: 0})
		p.emit(isa.Inst{Op: isa.ABNE, Imm: int32(top - len(p.code) - 1)})
		return
	}
	p.emit(isa.Inst{Op: isa.ADDIU, Rt: rBase, Rs: rBase, Imm: 4})
	p.emit(isa.Inst{Op: isa.ADDIU, Rt: rVal, Rs: rVal, Imm: -1})
	p.emit(isa.Inst{Op: isa.BNE, Rs: rVal, Rt: isa.Zero, Imm: int32(top - len(p.code) - 1)})
}

// budgetPC runs img with the given instruction budget and returns the
// pc the budget error names.
func budgetPC(t *testing.T, img *obj.Image, maxInsts int64) uint32 {
	t.Helper()
	_, err := RunContext(context.Background(), img, Options{MaxInsts: maxInsts})
	var ve *Error
	if !errors.Is(err, ErrBudget) || !errors.As(err, &ve) {
		t.Fatalf("MaxInsts %d: err = %v, want ErrBudget", maxInsts, err)
	}
	return ve.PC
}

// TestBudgetChain: a block that would cross the budget runs only the
// instructions left, so the budget error names the exact next pc. Run
// with every budget from 1 to the program's length, each failing pc is
// the one after the previous failing pc's word, which is pc+4 unless
// that word ends a block; the full budget succeeds.
func TestBudgetChain(t *testing.T) {
	for _, arm := range []bool{false, true} {
		p := &prog{arm: arm}
		p.loop(5)
		img := p.image(t)
		mach, err := isa.ByName(img.ISAName())
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunContext(context.Background(), img, Options{})
		if err != nil {
			t.Fatal(err)
		}
		prev := budgetPC(t, img, 1)
		if prev != img.Entry+4 {
			t.Errorf("arm=%v: MaxInsts 1 fails at %#x, want %#x", arm, prev, img.Entry+4)
		}
		var ends int
		for k := int64(2); k < res.Insts; k++ {
			pc := budgetPC(t, img, k)
			in, err := mach.Decode(img.Text[(prev-obj.TextBase)/4])
			if err != nil {
				t.Fatal(err)
			}
			if in.EndsBlock() {
				ends++
			} else if pc != prev+4 {
				t.Errorf("arm=%v: MaxInsts %d fails at %#x, want %#x after %v", arm, k, pc, prev+4, in.Op.Name())
			}
			prev = pc
		}
		if ends != 5 {
			t.Errorf("arm=%v: crossed %d block ends, want the loop branch's 5", arm, ends)
		}
		if _, err := RunContext(context.Background(), img, Options{MaxInsts: res.Insts}); err != nil {
			t.Errorf("arm=%v: MaxInsts = Insts (%d): %v", arm, res.Insts, err)
		}
	}
}

// TestMemBudgetStraightLine: a branch-free program is one run of
// non-block-ending words, so only the block cap makes the loop poll the
// memory budget inside it. Storing to 10,000 fresh pages under a 1 MB
// budget must fail within two cap lengths, not after the whole program.
func TestMemBudgetStraightLine(t *testing.T) {
	p := &prog{}
	p.li(rBase, obj.DataBase+1<<20)
	for range 10000 {
		p.mem(isa.SW, isa.Zero, rBase, 0)
		p.emit(isa.Inst{Op: isa.ADDIU, Rt: rBase, Rs: rBase, Imm: pageSize})
	}
	img := p.image(t)
	_, err := RunContext(context.Background(), img, Options{MaxMemBytes: 1 << 20})
	var ve *Error
	if !errors.Is(err, ErrMemBudget) || !errors.As(err, &ve) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
	if limit := img.Entry + 4*2*maxBlock; ve.PC <= img.Entry || ve.PC > limit {
		t.Errorf("memory budget caught at %#x, want within the first %d instructions (by %#x)", ve.PC, 2*maxBlock, limit)
	}
}

// TestFlushOnError: a run that fails still flushes the accesses its
// cache group skipped, so each attached cache has counted every access
// the run made.
func TestFlushOnError(t *testing.T) {
	for _, arm := range []bool{false, true} {
		p := &prog{arm: arm}
		p.loop(64)
		img := p.image(t)
		caches := []*cache.Cache{
			mustCache(cache.Baseline),
			mustCache(cache.Config{SizeBytes: 256, Assoc: 2, BlockBytes: 16}),
		}
		var seen uint64
		_, err := RunContext(context.Background(), img, Options{
			MaxInsts: 200,
			Caches:   caches,
			OnAccess: func(uint32, uint32, bool) { seen++ },
		})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("arm=%v: err = %v, want ErrBudget", arm, err)
		}
		for _, c := range caches {
			if st := c.Stats(); st.Accesses != seen || st.Misses >= seen {
				t.Errorf("arm=%v: %v: Stats %+v after %d accesses", arm, c.Config(), st, seen)
			}
		}
	}
}
