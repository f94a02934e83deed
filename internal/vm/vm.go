// Package vm interprets linked images: the execution half of the
// SimpleScalar stand-in. It executes the ISA directly (no pipeline model),
// feeds every data access to any number of attached cache models, and
// records per-instruction execution counts plus per-load, per-cache miss
// counts — the full memory profile the paper's training phase requires.
package vm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"delinq/internal/cache"
	"delinq/internal/isa"
	"delinq/internal/obj"

	// Both backends register themselves so any image executes.
	_ "delinq/internal/isa/arm"
	_ "delinq/internal/isa/mips"
)

const (
	pageSize = 1 << 12
	// dirPages is the number of pages one page directory maps (4 MB);
	// 1024 directories cover the 32-bit address space.
	dirPages = 1 << 10
)

// page is one page of VM memory.
type page [pageSize]byte

// Options configures one execution.
type Options struct {
	// Args is the program's input vector, read via the arg syscall.
	Args []int32
	// MaxInsts bounds execution; exceeding it is an error. Zero means
	// the default of 2e9.
	MaxInsts int64
	// MaxMemBytes bounds the VM-visible memory a run may touch: every
	// page the program allocates — static data, `.space` regions on
	// first touch, sbrk/malloc heap, stack — counts against it.
	// Exceeding it fails the run with ErrMemBudget. Zero means the
	// default of DefaultMaxMem; negative means unlimited.
	MaxMemBytes int64
	// Caches are data-cache models fed by every load and store. Multiple
	// geometries, up to cache.MaxGroup, can be evaluated in a single run.
	Caches []*cache.Cache
	// CaptureOutput keeps syscall output in Result.Output.
	CaptureOutput bool
	// OnAccess, when set, observes every data access (after the cache
	// models), in program order, those the cache group skips included:
	// the hook behind trace-based memory profiling. It sends every
	// access down the out-of-line path.
	OnAccess func(pc, addr uint32, store bool)
}

// Result is the outcome of a completed execution.
type Result struct {
	Exit   int32
	Insts  int64
	Output string
	// Exec[i] is how many times text word i executed: E(i) indexed by
	// (pc-TextBase)/4. Each load or store issues one data access per
	// execution.
	Exec []int64
	// LoadMisses[c][i] counts cache-c misses suffered by the load at
	// text word i: M(i, C).
	LoadMisses [][]int64
	// DataAccesses counts all data reads+writes.
	DataAccesses int64
}

// ExecAt returns E(i) for an instruction address.
func (r *Result) ExecAt(pc uint32) int64 {
	i := int(pc-obj.TextBase) / 4
	if i < 0 || i >= len(r.Exec) {
		return 0
	}
	return r.Exec[i]
}

// MissesAt returns M(i,C) for cache index c and instruction address pc.
func (r *Result) MissesAt(c int, pc uint32) int64 {
	i := int(pc-obj.TextBase) / 4
	if c < 0 || c >= len(r.LoadMisses) || i < 0 || i >= len(r.LoadMisses[c]) {
		return 0
	}
	return r.LoadMisses[c][i]
}

// ErrBudget marks an execution that exceeded its instruction budget;
// match with errors.Is to distinguish runaway programs from genuine
// machine faults.
var ErrBudget = errors.New("instruction budget exhausted")

// DefaultMaxMem is the memory budget applied when Options.MaxMemBytes
// is zero: generous for every legitimate benchmark and kernel, but far
// below the address space's ~1.7 GB heap room, so a malloc loop or a
// touched giant `.space` region fails cleanly instead of ballooning
// the host process.
const DefaultMaxMem = 256 << 20

// ErrMemBudget marks an execution that touched more memory than its
// budget allows; match with errors.Is.
var ErrMemBudget = errors.New("memory budget exhausted")

// Error is a runtime fault with the faulting pc. Err, when non-nil,
// carries the underlying cause (ErrBudget, a context cancellation) for
// errors.Is/As matching through the chain.
type Error struct {
	PC  uint32
	Msg string
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("vm: pc=%#x: %s", e.PC, e.Msg) }

// Unwrap exposes the cause.
func (e *Error) Unwrap() error { return e.Err }

type machine struct {
	img  *obj.Image
	code []isa.Inst
	// ends[i] is the text index of the last word of the block entered at
	// word i: the first word at or after i that ends a basic block, or
	// the last word of text, capped so that no block runs more than
	// maxBlock instructions.
	ends   []int32
	reg    [32]int32
	freg   [32]float32
	hi, lo int32
	cc     bool
	// cmpA/cmpB hold the last ACMP/ACMPI operand pair; the ARM
	// conditional branches and set instructions derive their outcome
	// from them rather than from materialised condition flags.
	cmpA, cmpB int32
	// pages is a two-level page table: address bits 31-22 pick a
	// directory and bits 21-12 a page in it. Directories and pages are
	// allocated on first touch and never freed.
	pages [1024]*[dirPages]*page
	// tlb is a direct-mapped translation cache in front of the page
	// table, indexed by the page number's low bits. Pages are never
	// unmapped, so an entry never goes stale.
	tlb [tlbEntries]tlbEntry
	// memBytes counts allocated page bytes against maxMem; the loop
	// polls it at least once per maxBlock instructions (with the context
	// check), so a run can overshoot by at most the pages touched in one
	// poll interval — a few MB, never unbounded growth.
	memBytes int64
	maxMem   int64
	brk      uint32
	out      strings.Builder
	opts     Options
	res      *Result
	// caches feeds every data access to the attached caches; onAccess
	// is the observation hook (nil when unused).
	caches   *cache.Group
	onAccess func(pc, addr uint32, store bool)
	// ctx is non-nil only for cancellable contexts; the loop then polls
	// it at least once per maxBlock instructions.
	ctx context.Context
}

// tlbEntries is the size of the translation cache. Unoptimised code
// alternates between stack and global pages: on the data accesses of a
// table sweep one entry misses 44 % of the time, and 64 entries miss
// 97 k times in 128.5 M.
const tlbEntries = 64

// tlbEntry maps one page: tag is its page number plus one, so the zero
// entry matches no address.
type tlbEntry struct {
	tag  uint32
	page *page
}

// maxBlock caps the instructions one block entry runs, so that the
// memory-budget and context poll, made between blocks, still runs at
// least once per maxBlock instructions.
const maxBlock = 8192

// RunContext executes the image to completion, checking ctx
// periodically in the loop so a deadline or cancellation stops a
// runaway simulation within a few thousand instructions. A context
// without cancellation (context.Background()) costs nothing in the
// loop. The attached caches are flushed (cache.Group.Flush) on every
// return, so they stay consistent for a later run even after an error.
func RunContext(ctx context.Context, img *obj.Image, opts Options) (*Result, error) {
	if opts.MaxInsts == 0 {
		opts.MaxInsts = 2e9
	}
	if opts.MaxMemBytes == 0 {
		opts.MaxMemBytes = DefaultMaxMem
	}
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	caches, err := cache.NewGroup(opts.Caches)
	if err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	defer caches.Flush()
	m := &machine{
		img:    img,
		caches: caches,
		brk:    (img.DataEnd() + 7) &^ 7,
		opts:   opts,
		res:    &Result{Exec: make([]int64, len(img.Text))},
	}
	mach, err := isa.ByName(img.ISAName())
	if err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	m.code = make([]isa.Inst, len(img.Text))
	for i, w := range img.Text {
		in, err := mach.Decode(w)
		if err != nil {
			return nil, err
		}
		m.code[i] = in
	}
	m.ends = make([]int32, len(m.code))
	for i := len(m.code) - 1; i >= 0; i-- {
		m.ends[i] = int32(i)
		if i+1 < len(m.code) && !m.code[i].EndsBlock() {
			m.ends[i] = min(m.ends[i+1], int32(i+maxBlock-1))
		}
	}
	for range opts.Caches {
		m.res.LoadMisses = append(m.res.LoadMisses, make([]int64, len(img.Text)))
	}
	m.onAccess = opts.OnAccess
	m.maxMem = opts.MaxMemBytes
	// Initialise static data a page at a time (DataBase is page-aligned),
	// checking the memory budget as pages materialise so a giant data
	// segment fails fast instead of after allocating it all.
	for off := 0; off < len(img.Data); off += pageSize {
		copy(m.walk(obj.DataBase + uint32(off))[:], img.Data[off:])
		if m.maxMem > 0 && m.memBytes > m.maxMem {
			return nil, &Error{
				PC:  img.Entry,
				Msg: fmt.Sprintf("static data exceeds the memory budget of %d bytes", m.maxMem),
				Err: ErrMemBudget,
			}
		}
	}
	if gp, ok := mach.GP(); ok {
		m.reg[gp] = int32(img.GPValue)
	}
	m.reg[isa.SP] = int32(obj.StackTop)
	m.reg[isa.RA] = 0 // returning from the entry halts
	if ctx.Done() != nil {
		m.ctx = ctx
	}

	if err := m.loop(); err != nil {
		return nil, err
	}
	m.finish()
	if opts.CaptureOutput {
		m.res.Output = m.out.String()
	}
	return m.res, nil
}

// finish turns the block-entry counts the loop leaves in Exec into
// per-word execution counts, and derives DataAccesses from them. A
// completed run finishes every block it enters, so word j ran once per
// entry at a word i <= j whose block ends at or after j: a difference
// array adds each entry count over its block.
func (m *machine) finish() {
	exec := m.res.Exec
	diff := make([]int64, len(exec)+1)
	for i, n := range exec {
		diff[i] += n
		diff[m.ends[i]+1] -= n
	}
	var run int64
	for i, in := range m.code {
		run += diff[i]
		exec[i] = run
		if in.IsLoad() || in.IsStore() {
			m.res.DataAccesses += run
		}
	}
}

// fault reports a runtime fault at text word i.
func fault(i int, format string, args ...any) error {
	return &Error{PC: pcOf(i), Msg: fmt.Sprintf(format, args...)}
}

// cached returns addr's page from the translation cache, or nil when
// the cache does not hold it.
func (m *machine) cached(addr uint32) *page {
	if e := m.tlb[addr/pageSize%tlbEntries]; e.tag == addr/pageSize+1 {
		return e.page
	}
	return nil
}

// walk translates addr through the page table, allocating its directory
// and page on first touch, and refills the translation cache.
func (m *machine) walk(addr uint32) *page {
	dir := m.pages[addr>>22]
	if dir == nil {
		dir = new([dirPages]*page)
		m.pages[addr>>22] = dir
	}
	pi := addr >> 12 & (dirPages - 1)
	p := dir[pi]
	if p == nil {
		p = new(page)
		dir[pi] = p
		m.memBytes += pageSize
	}
	m.tlb[addr/pageSize%tlbEntries] = tlbEntry{tag: addr/pageSize + 1, page: p}
	return p
}

// fast returns the page of a data access of size bytes at addr when
// the access needs nothing more than the group's filter: the
// translation cache holds its page, it is aligned, no hook observes it
// and the group skips it, counting the skip. Otherwise it returns nil
// and the access goes through slow. It inlines, so the common access
// makes no call; its inliner cost is 80, the whole budget, so anything
// added here must be paid for. Translation is tested before the filter,
// so an access fast declines has not been counted.
func (m *machine) fast(addr, size uint32) (p *page) {
	if p = m.cached(addr); p != nil && addr%size == 0 && m.onAccess == nil && m.caches.Skip(addr) {
		return p
	}
	return nil
}

// slow makes a data access by text word i that fast declined, in the
// order every access takes: it feeds the caches, attributes the load's
// misses, reports the access to the OnAccess hook, faults if addr is
// not size-aligned, and returns addr's page.
//
//go:noinline
func (m *machine) slow(i int, addr uint32, isStore bool, size uint32) (*page, error) {
	if missed := m.caches.Access(addr, isStore); !isStore {
		for ; missed != 0; missed &= missed - 1 {
			m.res.LoadMisses[bits.TrailingZeros64(missed)][i]++
		}
	}
	if m.onAccess != nil {
		m.onAccess(pcOf(i), addr, isStore)
	}
	if addr%size != 0 {
		width, dir := "word", "load"
		if size == 2 {
			width = "half"
		}
		if isStore {
			dir = "store"
		}
		return nil, fault(i, "unaligned %s %s at %#x", width, dir, addr)
	}
	if p := m.cached(addr); p != nil {
		return p, nil
	}
	return m.walk(addr), nil
}

// word and half return the bytes of p from the word or half at addr,
// which must be aligned. Alignment leaves the masked offset bits zero,
// and the mask lets the compiler drop the bounds checks.
func word(p *page, addr uint32) []byte { return p[addr&(pageSize-4):] }
func half(p *page, addr uint32) []byte { return p[addr&(pageSize-2):] }

func (m *machine) setReg(r isa.Reg, v int32) {
	if r != isa.Zero {
		m.reg[r] = v
	}
}

// pcOf returns the address of text word i.
func pcOf(i int) uint32 { return obj.TextBase + uint32(i)*4 }

// poll checks the memory budget and the context at the block entered
// at pc.
func (m *machine) poll(pc uint32) error {
	if m.maxMem > 0 && m.memBytes > m.maxMem {
		return &Error{
			PC:  pc,
			Msg: fmt.Sprintf("memory budget of %d bytes exhausted", m.maxMem),
			Err: ErrMemBudget,
		}
	}
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			return &Error{PC: pc, Msg: "execution cancelled: " + err.Error(), Err: err}
		}
	}
	return nil
}

// loop runs the program a basic block at a time. Each block entry pays
// for the halt test, the text-bounds check, one budget comparison and
// one count in Exec; inside the block only the opcode switch runs.
// Conditional branches that fall through, and blocks cut by the cap or
// the budget, continue at the word after the block's last.
func (m *machine) loop() error {
	code, ends, entries := m.code, m.ends, m.res.Exec
	pc := m.img.Entry
	var insts int64
	// The next block that would run past pollAt polls memory and the
	// context first, and one past MaxInsts is cut or fails; limit is
	// the smaller of the two, so the common block pays one comparison.
	var pollAt int64
	limit := min(pollAt, m.opts.MaxInsts)
	var err error
blocks:
	for {
		if pc == 0 {
			m.res.Exit = m.reg[isa.V0]
			break
		}
		start := int(pc-obj.TextBase) / 4
		if pc < obj.TextBase || start >= len(code) || pc%4 != 0 {
			return &Error{PC: pc, Msg: "control transfer outside text"}
		}
		end := int(ends[start])
		if n := int64(end - start + 1); insts+n > limit {
			if insts >= m.opts.MaxInsts {
				return &Error{
					PC:  pc,
					Msg: fmt.Sprintf("instruction budget of %d exhausted", m.opts.MaxInsts),
					Err: ErrBudget,
				}
			}
			if insts+n > pollAt {
				if err := m.poll(pc); err != nil {
					return err
				}
				pollAt = insts + maxBlock
			}
			// A block that would cross the budget runs only the
			// instructions left, none of them a control transfer, and
			// the next block entry fails at the following pc.
			end = start + int(min(n, m.opts.MaxInsts-insts)) - 1
			limit = min(pollAt, m.opts.MaxInsts)
		}
		insts += int64(end - start + 1)
		entries[start]++
		for i := start; i <= end; i++ {
			in := code[i]
			switch in.Op {
			case isa.NOP:
			case isa.SLL:
				m.setReg(in.Rd, m.reg[in.Rt]<<uint(in.Imm))
			case isa.SRL:
				m.setReg(in.Rd, int32(uint32(m.reg[in.Rt])>>uint(in.Imm)))
			case isa.SRA:
				m.setReg(in.Rd, m.reg[in.Rt]>>uint(in.Imm))
			case isa.SLLV:
				m.setReg(in.Rd, m.reg[in.Rt]<<uint(m.reg[in.Rs]&31))
			case isa.SRLV:
				m.setReg(in.Rd, int32(uint32(m.reg[in.Rt])>>uint(m.reg[in.Rs]&31)))
			case isa.SRAV:
				m.setReg(in.Rd, m.reg[in.Rt]>>uint(m.reg[in.Rs]&31))
			case isa.ADD, isa.ADDU:
				m.setReg(in.Rd, m.reg[in.Rs]+m.reg[in.Rt])
			case isa.SUB, isa.SUBU:
				m.setReg(in.Rd, m.reg[in.Rs]-m.reg[in.Rt])
			case isa.AND:
				m.setReg(in.Rd, m.reg[in.Rs]&m.reg[in.Rt])
			case isa.OR:
				m.setReg(in.Rd, m.reg[in.Rs]|m.reg[in.Rt])
			case isa.XOR:
				m.setReg(in.Rd, m.reg[in.Rs]^m.reg[in.Rt])
			case isa.NOR:
				m.setReg(in.Rd, ^(m.reg[in.Rs] | m.reg[in.Rt]))
			case isa.SLT:
				m.setReg(in.Rd, b2i(m.reg[in.Rs] < m.reg[in.Rt]))
			case isa.SLTU:
				m.setReg(in.Rd, b2i(uint32(m.reg[in.Rs]) < uint32(m.reg[in.Rt])))
			case isa.MUL:
				m.setReg(in.Rd, m.reg[in.Rs]*m.reg[in.Rt])
			case isa.MULT:
				p := int64(m.reg[in.Rs]) * int64(m.reg[in.Rt])
				m.lo, m.hi = int32(p), int32(p>>32)
			case isa.DIV:
				if m.reg[in.Rt] == 0 {
					return fault(i, "integer division by zero")
				}
				m.lo = m.reg[in.Rs] / m.reg[in.Rt]
				m.hi = m.reg[in.Rs] % m.reg[in.Rt]
			case isa.DIVU:
				if m.reg[in.Rt] == 0 {
					return fault(i, "integer division by zero")
				}
				m.lo = int32(uint32(m.reg[in.Rs]) / uint32(m.reg[in.Rt]))
				m.hi = int32(uint32(m.reg[in.Rs]) % uint32(m.reg[in.Rt]))
			case isa.MFHI:
				m.setReg(in.Rd, m.hi)
			case isa.MFLO:
				m.setReg(in.Rd, m.lo)

			case isa.JR:
				pc = uint32(m.reg[in.Rs])
				continue blocks
			case isa.JALR:
				m.setReg(in.Rd, int32(pcOf(i)+4))
				pc = uint32(m.reg[in.Rs])
				continue blocks
			case isa.J:
				pc = in.JumpTarget(pcOf(i))
				continue blocks
			case isa.JAL:
				m.reg[isa.RA] = int32(pcOf(i) + 4)
				pc = in.JumpTarget(pcOf(i))
				continue blocks
			case isa.BEQ:
				if m.reg[in.Rs] == m.reg[in.Rt] {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.BNE:
				if m.reg[in.Rs] != m.reg[in.Rt] {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.BLEZ:
				if m.reg[in.Rs] <= 0 {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.BGTZ:
				if m.reg[in.Rs] > 0 {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.BLTZ:
				if m.reg[in.Rs] < 0 {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.BGEZ:
				if m.reg[in.Rs] >= 0 {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.BC1T:
				if m.cc {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.BC1F:
				if !m.cc {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}

			case isa.SYSCALL, isa.ASVC:
				halt, err := m.syscall(i)
				if err != nil {
					return err
				}
				if halt {
					break blocks
				}

			case isa.ADDI, isa.ADDIU:
				m.setReg(in.Rt, m.reg[in.Rs]+in.Imm)
			case isa.SLTI:
				m.setReg(in.Rt, b2i(m.reg[in.Rs] < in.Imm))
			case isa.SLTIU:
				m.setReg(in.Rt, b2i(uint32(m.reg[in.Rs]) < uint32(in.Imm)))
			case isa.ANDI:
				m.setReg(in.Rt, m.reg[in.Rs]&in.Imm)
			case isa.ORI:
				m.setReg(in.Rt, m.reg[in.Rs]|in.Imm)
			case isa.XORI:
				m.setReg(in.Rt, m.reg[in.Rs]^in.Imm)
			case isa.LUI:
				m.setReg(in.Rt, in.Imm<<16)

			// Loads and stores; ARM's offset forms share the MIPS cases.
			// Each access takes fast, which makes no call, or else slow.
			case isa.LW, isa.ALDR:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 4)
				if p == nil {
					if p, err = m.slow(i, addr, false, 4); err != nil {
						return err
					}
				}
				m.setReg(in.Rt, int32(binary.LittleEndian.Uint32(word(p, addr))))
			case isa.LH, isa.ALDRSH:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 2)
				if p == nil {
					if p, err = m.slow(i, addr, false, 2); err != nil {
						return err
					}
				}
				m.setReg(in.Rt, int32(int16(binary.LittleEndian.Uint16(half(p, addr)))))
			case isa.LHU, isa.ALDRH:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 2)
				if p == nil {
					if p, err = m.slow(i, addr, false, 2); err != nil {
						return err
					}
				}
				m.setReg(in.Rt, int32(binary.LittleEndian.Uint16(half(p, addr))))
			case isa.LB, isa.ALDRSB:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 1)
				if p == nil {
					if p, err = m.slow(i, addr, false, 1); err != nil {
						return err
					}
				}
				m.setReg(in.Rt, int32(int8(p[addr%pageSize])))
			case isa.LBU, isa.ALDRB:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 1)
				if p == nil {
					if p, err = m.slow(i, addr, false, 1); err != nil {
						return err
					}
				}
				m.setReg(in.Rt, int32(p[addr%pageSize]))
			case isa.SW, isa.ASTR:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 4)
				if p == nil {
					if p, err = m.slow(i, addr, true, 4); err != nil {
						return err
					}
				}
				binary.LittleEndian.PutUint32(word(p, addr), uint32(m.reg[in.Rt]))
			case isa.SH, isa.ASTRH:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 2)
				if p == nil {
					if p, err = m.slow(i, addr, true, 2); err != nil {
						return err
					}
				}
				binary.LittleEndian.PutUint16(half(p, addr), uint16(m.reg[in.Rt]))
			case isa.SB, isa.ASTRB:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 1)
				if p == nil {
					if p, err = m.slow(i, addr, true, 1); err != nil {
						return err
					}
				}
				p[addr%pageSize] = byte(m.reg[in.Rt])
			case isa.LWC1, isa.AVLDR:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 4)
				if p == nil {
					if p, err = m.slow(i, addr, false, 4); err != nil {
						return err
					}
				}
				m.freg[in.Rt] = math.Float32frombits(binary.LittleEndian.Uint32(word(p, addr)))
			case isa.SWC1, isa.AVSTR:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 4)
				if p == nil {
					if p, err = m.slow(i, addr, true, 4); err != nil {
						return err
					}
				}
				binary.LittleEndian.PutUint32(word(p, addr), math.Float32bits(m.freg[in.Rt]))

			case isa.MFC1:
				m.setReg(in.Rt, int32(math.Float32bits(m.freg[in.Rd])))
			case isa.MTC1:
				m.freg[in.Rd] = math.Float32frombits(uint32(m.reg[in.Rt]))
			case isa.ADDS:
				m.freg[in.Rd] = m.freg[in.Rs] + m.freg[in.Rt]
			case isa.SUBS:
				m.freg[in.Rd] = m.freg[in.Rs] - m.freg[in.Rt]
			case isa.MULS:
				m.freg[in.Rd] = m.freg[in.Rs] * m.freg[in.Rt]
			case isa.DIVS:
				m.freg[in.Rd] = m.freg[in.Rs] / m.freg[in.Rt]
			case isa.MOVS:
				m.freg[in.Rd] = m.freg[in.Rs]
			case isa.NEGS:
				m.freg[in.Rd] = -m.freg[in.Rs]
			case isa.CVTSW:
				m.freg[in.Rd] = float32(int32(math.Float32bits(m.freg[in.Rs])))
			case isa.CVTWS:
				m.freg[in.Rd] = math.Float32frombits(uint32(int32(m.freg[in.Rs])))
			case isa.CEQS:
				m.cc = m.freg[in.Rs] == m.freg[in.Rt]
			case isa.CLTS:
				m.cc = m.freg[in.Rs] < m.freg[in.Rt]
			case isa.CLES:
				m.cc = m.freg[in.Rs] <= m.freg[in.Rt]

			// ARM backend: two-operand ALU (Rd is both destination and left
			// source), compare-state branches, and pre/post-indexed memory.
			case isa.AMOV:
				m.setReg(in.Rd, m.reg[in.Rs])
			case isa.AMVN:
				m.setReg(in.Rd, ^m.reg[in.Rs])
			case isa.AADD:
				m.setReg(in.Rd, m.reg[in.Rd]+m.reg[in.Rt])
			case isa.ASUB:
				m.setReg(in.Rd, m.reg[in.Rd]-m.reg[in.Rt])
			case isa.ARSB:
				m.setReg(in.Rd, m.reg[in.Rt]-m.reg[in.Rd])
			case isa.AMUL:
				m.setReg(in.Rd, m.reg[in.Rd]*m.reg[in.Rt])
			case isa.AAND:
				m.setReg(in.Rd, m.reg[in.Rd]&m.reg[in.Rt])
			case isa.AORR:
				m.setReg(in.Rd, m.reg[in.Rd]|m.reg[in.Rt])
			case isa.AEOR:
				m.setReg(in.Rd, m.reg[in.Rd]^m.reg[in.Rt])
			case isa.ALSL:
				m.setReg(in.Rd, m.reg[in.Rd]<<uint(m.reg[in.Rt]&31))
			case isa.ALSR:
				m.setReg(in.Rd, int32(uint32(m.reg[in.Rd])>>uint(m.reg[in.Rt]&31)))
			case isa.AASR:
				m.setReg(in.Rd, m.reg[in.Rd]>>uint(m.reg[in.Rt]&31))
			case isa.AADDI:
				m.setReg(in.Rd, m.reg[in.Rd]+in.Imm)
			case isa.AANDI:
				m.setReg(in.Rd, m.reg[in.Rd]&in.Imm)
			case isa.AORRI:
				m.setReg(in.Rd, m.reg[in.Rd]|in.Imm)
			case isa.AEORI:
				m.setReg(in.Rd, m.reg[in.Rd]^in.Imm)
			case isa.ALSLI:
				m.setReg(in.Rd, m.reg[in.Rd]<<uint(in.Imm))
			case isa.ALSRI:
				m.setReg(in.Rd, int32(uint32(m.reg[in.Rd])>>uint(in.Imm)))
			case isa.AASRI:
				m.setReg(in.Rd, m.reg[in.Rd]>>uint(in.Imm))
			case isa.AMOVI:
				m.setReg(in.Rd, in.Imm)
			case isa.AMOVW:
				m.setReg(in.Rd, in.Imm&0xffff)
			case isa.AMOVT:
				m.setReg(in.Rd, m.reg[in.Rd]&0xffff|in.Imm<<16)

			case isa.ACMP:
				m.cmpA, m.cmpB = m.reg[in.Rs], m.reg[in.Rt]
			case isa.ACMPI:
				m.cmpA, m.cmpB = m.reg[in.Rs], in.Imm
			case isa.ASETLT:
				m.setReg(in.Rd, b2i(m.cmpA < m.cmpB))
			case isa.ASETLO:
				m.setReg(in.Rd, b2i(uint32(m.cmpA) < uint32(m.cmpB)))
			case isa.ABEQ:
				if m.cmpA == m.cmpB {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.ABNE:
				if m.cmpA != m.cmpB {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.ABLT:
				if m.cmpA < m.cmpB {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.ABGE:
				if m.cmpA >= m.cmpB {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.ABGT:
				if m.cmpA > m.cmpB {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.ABLE:
				if m.cmpA <= m.cmpB {
					pc = in.BranchTarget(pcOf(i))
					continue blocks
				}
			case isa.AB:
				pc = in.BranchTarget(pcOf(i))
				continue blocks
			case isa.ABL:
				m.reg[isa.RA] = int32(pcOf(i) + 4)
				pc = in.BranchTarget(pcOf(i))
				continue blocks
			case isa.ABX:
				pc = uint32(m.reg[in.Rs])
				continue blocks
			case isa.ABLX:
				m.setReg(in.Rd, int32(pcOf(i)+4))
				pc = uint32(m.reg[in.Rs])
				continue blocks

			case isa.ALDRPRE:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 4)
				if p == nil {
					if p, err = m.slow(i, addr, false, 4); err != nil {
						return err
					}
				}
				m.setReg(in.Rs, int32(addr))
				m.setReg(in.Rt, int32(binary.LittleEndian.Uint32(word(p, addr))))
			case isa.ALDRPOST:
				addr := uint32(m.reg[in.Rs])
				p := m.fast(addr, 4)
				if p == nil {
					if p, err = m.slow(i, addr, false, 4); err != nil {
						return err
					}
				}
				m.setReg(in.Rs, m.reg[in.Rs]+in.Imm)
				m.setReg(in.Rt, int32(binary.LittleEndian.Uint32(word(p, addr))))
			case isa.ASTRPRE:
				addr := uint32(m.reg[in.Rs] + in.Imm)
				p := m.fast(addr, 4)
				if p == nil {
					if p, err = m.slow(i, addr, true, 4); err != nil {
						return err
					}
				}
				binary.LittleEndian.PutUint32(word(p, addr), uint32(m.reg[in.Rt]))
				m.setReg(in.Rs, int32(addr))
			case isa.ASTRPOST:
				addr := uint32(m.reg[in.Rs])
				p := m.fast(addr, 4)
				if p == nil {
					if p, err = m.slow(i, addr, true, 4); err != nil {
						return err
					}
				}
				binary.LittleEndian.PutUint32(word(p, addr), uint32(m.reg[in.Rt]))
				m.setReg(in.Rs, m.reg[in.Rs]+in.Imm)

			default:
				return fault(i, "unimplemented op %v", in.Op)
			}
		}
		pc = pcOf(end + 1)
	}
	m.res.Insts = insts
	return nil
}

// Syscall service numbers (SPIM-compatible where applicable).
const (
	SysPrintInt   = 1
	SysPrintFloat = 2
	SysPrintStr   = 4
	SysSbrk       = 9
	SysExit       = 10
	SysPrintChar  = 11
	SysArg        = 40 // $v0 = Args[$a0], 0 if out of range
	SysNumArgs    = 41 // $v0 = len(Args)
)

// syscall services the trap at text word i.
func (m *machine) syscall(i int) (halt bool, err error) {
	switch m.reg[isa.V0] {
	case SysPrintInt:
		fmt.Fprintf(&m.out, "%d", m.reg[isa.A0])
	case SysPrintFloat:
		fmt.Fprintf(&m.out, "%g", m.freg[12])
	case SysPrintStr:
		addr := uint32(m.reg[isa.A0])
		var sb []byte
		for {
			b := m.walk(addr)[addr%pageSize]
			if b == 0 || len(sb) > 1<<16 {
				break
			}
			sb = append(sb, b)
			addr++
		}
		m.out.Write(sb)
	case SysSbrk:
		n := uint32(m.reg[isa.A0])
		m.reg[isa.V0] = int32(m.brk)
		m.brk = (m.brk + n + 7) &^ 7
		if m.brk >= obj.StackTop-(1<<20) {
			return false, fault(i, "heap overflow into stack")
		}
	case SysExit:
		m.res.Exit = m.reg[isa.A0]
		return true, nil
	case SysPrintChar:
		m.out.WriteByte(byte(m.reg[isa.A0]))
	case SysArg:
		i := int(m.reg[isa.A0])
		if i >= 0 && i < len(m.opts.Args) {
			m.reg[isa.V0] = m.opts.Args[i]
		} else {
			m.reg[isa.V0] = 0
		}
	case SysNumArgs:
		m.reg[isa.V0] = int32(len(m.opts.Args))
	default:
		return false, fault(i, "unknown syscall %d", m.reg[isa.V0])
	}
	return false, nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
