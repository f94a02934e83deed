package vm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"delinq/internal/asm"
	"delinq/internal/cache"
	"delinq/internal/isa"
	"delinq/internal/isa/arm"
	"delinq/internal/isa/mips"
	"delinq/internal/obj"
)

// prog builds a straight-line program for one ISA from shared Inst
// values, so a test can name every load and store opcode directly.
type prog struct {
	arm  bool
	code []isa.Inst
}

// Registers the memory-path programs use; they are ordinary temporaries
// on both ISAs.
const (
	rBase isa.Reg = 8
	rVal  isa.Reg = 9
	rOut  isa.Reg = 10
	fVal  isa.Reg = 2
)

func (p *prog) emit(in isa.Inst) int {
	p.code = append(p.code, in)
	return len(p.code) - 1
}

// li loads a 32-bit constant.
func (p *prog) li(r isa.Reg, v uint32) {
	if p.arm {
		p.emit(isa.Inst{Op: isa.AMOVW, Rd: r, Imm: int32(v & 0xffff)})
		p.emit(isa.Inst{Op: isa.AMOVT, Rd: r, Imm: int32(v >> 16)})
		return
	}
	p.emit(isa.Inst{Op: isa.LUI, Rt: r, Imm: int32(v >> 16)})
	p.emit(isa.Inst{Op: isa.ORI, Rt: r, Rs: r, Imm: int32(v & 0xffff)})
}

// mem emits a word store (op SW) or load (op LW) of r at off(base),
// spelled for the ISA.
func (p *prog) mem(op isa.Op, r, base isa.Reg, off int32) int {
	if p.arm {
		op = map[isa.Op]isa.Op{isa.SW: isa.ASTR, isa.LW: isa.ALDR}[op]
	}
	return p.emit(isa.Inst{Op: op, Rt: r, Rs: base, Imm: off})
}

func (p *prog) syscall(n uint32) {
	p.li(isa.V0, n)
	if p.arm {
		p.emit(isa.Inst{Op: isa.ASVC})
	} else {
		p.emit(isa.Inst{Op: isa.SYSCALL})
	}
}

// print writes r in decimal and a space.
func (p *prog) print(r isa.Reg) {
	if p.arm {
		p.emit(isa.Inst{Op: isa.AMOV, Rd: isa.A0, Rs: r})
	} else {
		p.emit(isa.Inst{Op: isa.ADDU, Rd: isa.A0, Rs: r, Rt: isa.Zero})
	}
	p.syscall(SysPrintInt)
	p.li(isa.A0, ' ')
	p.syscall(SysPrintChar)
}

func (p *prog) image(t *testing.T) *obj.Image {
	t.Helper()
	name, encode := "mips", mips.Encode
	if p.arm {
		name, encode = "arm", arm.Encode
	}
	p.syscall(SysExit)
	img := obj.New()
	img.ISA, img.Entry = name, obj.TextBase
	for _, in := range p.code {
		w, err := encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		img.Text = append(img.Text, w)
	}
	return img
}

// memWord is the word every case stores and loads: its low byte and
// low half both have the sign bit set, so sign and zero extension give
// different values.
const memWord uint32 = 0xf1e2d3c4

// TestMemoryPathEveryOpcode runs each load and store opcode of both ISAs
// once, on data near DataBase and near StackTop (two page-table
// directories), and checks the value moved, base-register writeback,
// and the profile: Exec, DataAccesses and per-cache LoadMisses.
//
// Each program stores to the target word A, then to A+64, which evicts
// A from the small direct-mapped cache but not from the baseline one. A
// load under test therefore hits in the baseline cache and misses in
// the small one. A store under test is followed by the same conflicting
// store and a word load that reads the result back.
func TestMemoryPathEveryOpcode(t *testing.T) {
	w := memWord
	cases := []struct {
		op   isa.Op
		want uint32 // register value loaded, or word read back after the store
		wb   int32  // base-register change: 0, or +16 for pre-/post-index
	}{
		{isa.LW, w, 0}, {isa.LH, uint32(int32(int16(w))), 0}, {isa.LHU, w & 0xffff, 0},
		{isa.LB, uint32(int32(int8(w))), 0}, {isa.LBU, w & 0xff, 0}, {isa.LWC1, w, 0},
		{isa.SW, w, 0}, {isa.SH, w & 0xffff, 0}, {isa.SB, w & 0xff, 0}, {isa.SWC1, w, 0},
		{isa.ALDR, w, 0}, {isa.ALDRH, w & 0xffff, 0}, {isa.ALDRSH, uint32(int32(int16(w))), 0},
		{isa.ALDRB, w & 0xff, 0}, {isa.ALDRSB, uint32(int32(int8(w))), 0},
		{isa.ALDRPRE, w, 16}, {isa.ALDRPOST, w, 16}, {isa.AVLDR, w, 0},
		{isa.ASTR, w, 0}, {isa.ASTRH, w & 0xffff, 0}, {isa.ASTRB, w & 0xff, 0},
		{isa.ASTRPRE, w, 16}, {isa.ASTRPOST, w, 16}, {isa.AVSTR, w, 0},
	}
	for _, tc := range cases {
		for _, target := range []uint32{obj.DataBase + 0x100, obj.StackTop - 0x100} {
			t.Run(fmt.Sprintf("%s@%#x", tc.op.Name(), target), func(t *testing.T) {
				in := isa.Inst{Op: tc.op, Rt: rOut, Rs: rBase, Imm: 16}
				p := &prog{arm: strings.HasPrefix(tc.op.Name(), "arm.")}
				// Offset and pre-index forms address base+16; post-index
				// addresses base itself.
				base := target - uint32(in.MemOffset())
				init := uint32(0)
				if in.IsLoad() {
					init = memWord
				}
				p.li(rBase, target)
				p.li(rVal, init)
				p.mem(isa.SW, rVal, rBase, 0)
				p.mem(isa.SW, isa.Zero, rBase, 64)
				p.li(rVal, memWord)
				p.li(rBase, base)
				if in.IsFPMem() && in.IsStore() {
					p.emit(isa.Inst{Op: isa.MTC1, Rt: rVal, Rd: fVal})
				}
				if in.IsStore() {
					in.Rt = rVal
				}
				if in.IsFPMem() {
					in.Rt = fVal
				}
				opIdx := p.emit(in)
				loads := []int{opIdx}
				if in.IsFPMem() && in.IsLoad() {
					p.emit(isa.Inst{Op: isa.MFC1, Rt: rOut, Rd: fVal})
				}
				if in.IsStore() {
					p.li(rVal, target)
					p.mem(isa.SW, isa.Zero, rVal, 64)
					loads = []int{p.mem(isa.LW, rOut, rVal, 0)}
				}
				p.print(rOut)
				p.print(rBase)
				img := p.image(t)

				baseline := mustCache(cache.Baseline)
				small := mustCache(cache.Config{SizeBytes: 64, Assoc: 1, BlockBytes: 32})
				res, err := RunContext(context.Background(), img, Options{
					Caches:        []*cache.Cache{baseline, small},
					CaptureOutput: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				wantOut := fmt.Sprintf("%d %d ", int32(tc.want), int32(base)+tc.wb)
				if res.Output != wantOut {
					t.Errorf("output %q, want %q (value, base register)", res.Output, wantOut)
				}
				for i, n := range res.Exec {
					if n != 1 {
						t.Errorf("Exec[%d] = %d, want 1", i, n)
					}
				}
				wantSmall := make([]int64, len(img.Text))
				for _, i := range loads {
					wantSmall[i] = 1
				}
				if !slices.Equal(res.LoadMisses[0], make([]int64, len(img.Text))) {
					t.Errorf("baseline LoadMisses %v, want none", res.LoadMisses[0])
				}
				if !slices.Equal(res.LoadMisses[1], wantSmall) {
					t.Errorf("small-cache LoadMisses %v, want %v", res.LoadMisses[1], wantSmall)
				}
				accesses := 3 // init store, conflicting store, op
				if in.IsStore() {
					accesses = 5 // ... then a conflicting store and the read-back load
				}
				if res.DataAccesses != int64(accesses) {
					t.Errorf("DataAccesses = %d, want %d", res.DataAccesses, accesses)
				}
				// Every access goes to A or A+64: two sets of the baseline
				// cache, one set of the small one.
				if st := baseline.Stats(); st != (cache.Stats{Accesses: uint64(accesses), Misses: 2, StoreMisses: 2}) {
					t.Errorf("baseline Stats %+v", st)
				}
				if st := small.Stats(); st != (cache.Stats{Accesses: uint64(accesses), Misses: uint64(accesses),
					LoadMisses: 1, StoreMisses: uint64(accesses) - 1}) {
					t.Errorf("small-cache Stats %+v", st)
				}
			})
		}
	}
}

type access struct {
	addr  uint32
	store bool
}

// accessLog records a run's data accesses for replay through Access.
type accessLog []access

func (l *accessLog) hook(_, addr uint32, store bool) { *l = append(*l, access{addr, store}) }

func (l accessLog) feed(c *cache.Cache) {
	for _, a := range l {
		c.Access(a.addr, a.store)
	}
}

// loopProg strides through 2 KB twice with loads and stores: repeated
// blocks, conflict misses in small caches, and a first and last access
// to the same word.
const loopProg = `
	.data
a: .space 2048
	.text
main:
	la $t0, a
	lw $t3, 0($t0)
	li $t4, 2
outer:
	li $t1, 0
	li $t2, 256
	la $t0, a
loop:
	lw $t3, 0($t0)
	sw $t1, 4($t0)
	addiu $t0, $t0, 8
	addiu $t1, $t1, 1
	bne $t1, $t2, loop
	addiu $t4, $t4, -1
	bne $t4, $zero, outer
	la $t0, a
	lw $t3, 0($t0)
	li $v0, 10
	syscall
`

// TestWarmCachesAcrossRuns: caches passed to a second RunContext carry
// their lines over, and nothing else. The run ends and starts on the
// same block; between the runs that block is evicted through Access,
// so if a previous run's last-block state leaked into the next, the
// second run's first access would be skipped as a hit.
func TestWarmCachesAcrossRuns(t *testing.T) {
	img, err := asm.Assemble(loopProg)
	if err != nil {
		t.Fatal(err)
	}
	geoms := []cache.Config{
		cache.Baseline,
		{SizeBytes: 256, Assoc: 2, BlockBytes: 16},
		{SizeBytes: 128, Assoc: 1, BlockBytes: 32, Repl: cache.FIFO},
	}
	var warm, fresh []*cache.Cache
	for _, g := range geoms {
		warm, fresh = append(warm, mustCache(g)), append(fresh, mustCache(g))
	}
	a, ok := img.Lookup("a")
	if !ok {
		t.Fatal("no symbol a")
	}
	var log accessLog
	for round := 0; round < 2; round++ {
		if _, err := RunContext(context.Background(), img, Options{Caches: warm, OnAccess: log.hook}); err != nil {
			t.Fatal(err)
		}
		// Evict a's first block from every geometry: 8 conflicting blocks
		// exceed every associativity here.
		for k := uint32(1); k <= 8; k++ {
			log.hook(0, a.Addr+k*8192, false)
			for _, c := range warm {
				c.Access(a.Addr+k*8192, false)
			}
		}
	}
	for i, c := range fresh {
		log.feed(c)
		if got, want := warm[i].Stats(), c.Stats(); got != want {
			t.Errorf("%v: two warm runs give %+v, Access over both streams %+v", geoms[i], got, want)
		}
	}
}

// TestSameCacheAttachedTwice: attaching one *Cache twice feeds it every
// access twice. The first feed behaves like a lone cache; the second
// always hits the line the first just touched.
func TestSameCacheAttachedTwice(t *testing.T) {
	img, err := asm.Assemble(loopProg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{SizeBytes: 256, Assoc: 2, BlockBytes: 16}
	lone, twice := mustCache(cfg), mustCache(cfg)
	want, err := RunContext(context.Background(), img, Options{Caches: []*cache.Cache{lone}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), img, Options{Caches: []*cache.Cache{twice, twice}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.LoadMisses[0], want.LoadMisses[0]) {
		t.Errorf("first attachment's misses differ from a lone cache's")
	}
	if !slices.Equal(got.LoadMisses[1], make([]int64, len(img.Text))) {
		t.Errorf("second attachment missed: %v", got.LoadMisses[1])
	}
	st := lone.Stats()
	st.Accesses *= 2
	if twice.Stats() != st || st.Misses == 0 {
		t.Errorf("Stats %+v, want %+v", twice.Stats(), st)
	}
}

// TestOneByteBlocksAtTopOfMemory: with 1-byte blocks every address,
// 0xFFFFFFFF included, is its own block, so the first access there must
// be simulated, not mistaken for a repeat of "no previous access".
func TestOneByteBlocksAtTopOfMemory(t *testing.T) {
	for _, arm := range []bool{false, true} {
		p := &prog{arm: arm}
		ld := isa.LB
		if arm {
			ld = isa.ALDRSB
		}
		p.li(rBase, 0xffffffff)
		first := p.emit(isa.Inst{Op: ld, Rt: rOut, Rs: rBase})
		p.print(rOut)
		p.li(rVal, memWord)
		st := isa.SB
		if arm {
			st = isa.ASTRB
		}
		p.emit(isa.Inst{Op: st, Rt: rVal, Rs: rBase})
		second := p.emit(isa.Inst{Op: ld, Rt: rOut, Rs: rBase})
		p.print(rOut)
		img := p.image(t)
		c := mustCache(cache.Config{SizeBytes: 16, Assoc: 1, BlockBytes: 1})
		res, err := RunContext(context.Background(), img, Options{Caches: []*cache.Cache{c}, CaptureOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		w := memWord
		if want := fmt.Sprintf("0 %d ", int8(w)); res.Output != want {
			t.Errorf("arm=%v: output %q, want %q", arm, res.Output, want)
		}
		if res.LoadMisses[0][first] != 1 || res.LoadMisses[0][second] != 0 {
			t.Errorf("arm=%v: load misses %d then %d, want 1 then 0", arm,
				res.LoadMisses[0][first], res.LoadMisses[0][second])
		}
		if st := c.Stats(); st != (cache.Stats{Accesses: 3, Misses: 1, LoadMisses: 1}) {
			t.Errorf("arm=%v: Stats %+v", arm, st)
		}
	}
}

// conflictPages returns the addresses of n pages whose page numbers are
// equal modulo tlbEntries, so that all share one translation-cache
// entry: n-1 in the data segment's directory and the last in the
// stack's.
func conflictPages(n int) []uint32 {
	var pages []uint32
	for k := 0; k < n-1; k++ {
		pages = append(pages, obj.DataBase+uint32(k)*tlbEntries*pageSize)
	}
	top := (obj.StackTop - 1) / pageSize
	return append(pages, (top-(top-obj.DataBase/pageSize)%tlbEntries)*pageSize)
}

// TestTranslationCacheConflicts uses four pages that share one
// translation-cache entry, so that every access below translates a
// page other than the previous access's. Word k lies in block k of page
// k, and a decoy with another value at the same offset of page k+1
// (mod 4). The program stores the decoys, then the words, loads the
// words back twice and then the decoys, which a translation cache that
// confused the pages would read back as the words. With the baseline
// cache alone each word is the only block of its filter set since its
// store, so every word load is a skip whose translation misses: fast
// declines it before the filter and slow counts it, once. With a 2-set
// direct-mapped cache added, the group skips nothing and every access
// misses that cache.
func TestTranslationCacheConflicts(t *testing.T) {
	pages := conflictPages(4)
	small := cache.Config{SizeBytes: 64, Assoc: 1, BlockBytes: 32}
	wordOf := func(k int) uint32 { return memWord + uint32(k) }
	decoyOf := func(k int) uint32 { return memWord + 16 + uint32(k) }
	for _, arm := range []bool{false, true} {
		p := &prog{arm: arm}
		store := func(addr, v uint32) {
			p.li(rBase, addr)
			p.li(rVal, v)
			p.mem(isa.SW, rVal, rBase, 0)
		}
		var loads []int
		var want strings.Builder
		load := func(addr, v uint32) {
			p.li(rBase, addr)
			loads = append(loads, p.mem(isa.LW, rOut, rBase, 0))
			p.print(rOut)
			fmt.Fprintf(&want, "%d ", int32(v))
		}
		for k := range pages {
			store(pages[(k+1)%4]+uint32(32*k), decoyOf(k))
		}
		for k, pg := range pages {
			store(pg+uint32(32*k), wordOf(k))
		}
		for range 2 {
			for k, pg := range pages {
				load(pg+uint32(32*k), wordOf(k))
			}
		}
		for k := range pages {
			load(pages[(k+1)%4]+uint32(32*k), decoyOf(k))
		}
		img := p.image(t)
		const stores = 8
		accesses := uint64(stores + len(loads))
		for _, geoms := range [][]cache.Config{{cache.Baseline}, {cache.Baseline, small}} {
			var caches []*cache.Cache
			for _, g := range geoms {
				caches = append(caches, mustCache(g))
			}
			res, err := RunContext(context.Background(), img, Options{Caches: caches, CaptureOutput: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Output != want.String() {
				t.Errorf("arm=%v %v: output %q, want %q", arm, geoms, res.Output, want.String())
			}
			for i, n := range res.Exec {
				if n != 1 {
					t.Errorf("arm=%v %v: Exec[%d] = %d, want 1", arm, geoms, i, n)
				}
			}
			if res.DataAccesses != int64(accesses) {
				t.Errorf("arm=%v %v: DataAccesses = %d, want %d", arm, geoms, res.DataAccesses, accesses)
			}
			// Baseline set k holds word k and decoy k: the stores miss
			// and every load hits. In the small cache, blocks k and k+2
			// share a set, and each access there follows one to the
			// other block.
			if !slices.Equal(res.LoadMisses[0], make([]int64, len(img.Text))) {
				t.Errorf("arm=%v %v: baseline LoadMisses %v, want none", arm, geoms, res.LoadMisses[0])
			}
			if st := caches[0].Stats(); st != (cache.Stats{Accesses: accesses, Misses: stores, StoreMisses: stores}) {
				t.Errorf("arm=%v %v: baseline Stats %+v", arm, geoms, st)
			}
			if len(caches) == 1 {
				continue
			}
			wantSmall := make([]int64, len(img.Text))
			for _, i := range loads {
				wantSmall[i] = 1
			}
			if !slices.Equal(res.LoadMisses[1], wantSmall) {
				t.Errorf("arm=%v: small-cache LoadMisses %v, want %v", arm, res.LoadMisses[1], wantSmall)
			}
			if st := caches[1].Stats(); st != (cache.Stats{Accesses: accesses, Misses: accesses,
				LoadMisses: accesses - stores, StoreMisses: stores}) {
				t.Errorf("arm=%v: small-cache Stats %+v", arm, st)
			}
		}
	}
}

// TestMemBudgetConflictingPages stores to fresh pages that all share
// one translation-cache entry, each store followed by 30 no-ops, in
// straight-line code. Every page counts 4 KB against MaxMemBytes when
// first touched, and the budget is checked when a block is entered, at
// least once per maxBlock instructions; here that is at every multiple
// of maxBlock. So the run fails at the first multiple after the store
// that touches one page more than the budget holds.
func TestMemBudgetConflictingPages(t *testing.T) {
	const budgetPages = 300
	for _, arm := range []bool{false, true} {
		p := &prog{arm: arm}
		p.li(rBase, obj.DataBase)
		p.li(rVal, tlbEntries*pageSize)
		over := -1
		for k := 0; k < 2*budgetPages; k++ {
			if i := p.mem(isa.SW, isa.Zero, rBase, 0); k == budgetPages {
				over = i
			}
			if arm {
				p.emit(isa.Inst{Op: isa.AADD, Rd: rBase, Rt: rVal})
			} else {
				p.emit(isa.Inst{Op: isa.ADDU, Rd: rBase, Rs: rBase, Rt: rVal})
			}
			for range 30 {
				p.emit(isa.Inst{Op: isa.NOP})
			}
		}
		img := p.image(t)
		_, err := RunContext(context.Background(), img, Options{MaxMemBytes: budgetPages * pageSize})
		var ve *Error
		if !errors.Is(err, ErrMemBudget) || !errors.As(err, &ve) {
			t.Fatalf("arm=%v: err = %v, want ErrMemBudget", arm, err)
		}
		if want := pcOf((over/maxBlock + 1) * maxBlock); ve.PC != want {
			t.Errorf("arm=%v: memory budget caught at %#x, want %#x", arm, ve.PC, want)
		}
	}
}
