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
	"strings"

	"delinq/internal/cache"
	"delinq/internal/isa"
	"delinq/internal/obj"

	// Both backends register themselves so any image executes.
	_ "delinq/internal/isa/arm"
	_ "delinq/internal/isa/mips"
)

const pageSize = 1 << 12

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
	// geometries can be evaluated in a single run.
	Caches []*cache.Cache
	// CaptureOutput keeps syscall output in Result.Output.
	CaptureOutput bool
	// OnAccess, when set, observes every data access (after the cache
	// models): the hook behind trace-based memory profiling.
	OnAccess func(pc, addr uint32, store bool)
}

// Result is the outcome of a completed execution.
type Result struct {
	Exit   int32
	Insts  int64
	Output string
	// Exec[i] is how many times text word i executed: E(i) indexed by
	// (pc-TextBase)/4.
	Exec []int64
	// LoadAccesses[i] counts data accesses issued by text word i.
	LoadAccesses []int64
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
	img    *obj.Image
	code   []isa.Inst
	reg    [32]int32
	freg   [32]float32
	hi, lo int32
	cc     bool
	// cmpA/cmpB hold the last ACMP/ACMPI operand pair; the ARM
	// conditional branches and set instructions derive their outcome
	// from them rather than from materialised condition flags.
	cmpA, cmpB int32
	pc         uint32
	pages      map[uint32][]byte
	// One-entry page translation cache: the vast majority of data
	// accesses land on the page of the previous access, so this skips
	// the map lookup on the hot path. Pages are never unmapped, so the
	// cached slice can never go stale.
	lastBase uint32
	lastPage []byte
	// memBytes counts allocated page bytes against maxMem; the loop
	// polls it every 8K instructions (with the context check), so a run
	// can overshoot by at most the pages touched in one poll interval —
	// a few MB, never unbounded growth.
	memBytes int64
	maxMem   int64
	brk      uint32
	out      strings.Builder
	opts     Options
	res      *Result
	// Hot-path copies of Options fields, hoisted out of the step loop:
	// caches is the attached cache list, miss0 is LoadMisses[0] when
	// exactly one cache is attached (the single-cache fast path), and
	// onAccess is the observation hook (nil when unused).
	caches   []*cache.Cache
	miss0    []int64
	onAccess func(pc, addr uint32, store bool)
	// ctx is non-nil only for cancellable contexts; the step loop then
	// polls it every few thousand instructions.
	ctx context.Context
}

// RunContext executes the image to completion, checking ctx
// periodically in the step loop so a deadline or cancellation stops a
// runaway simulation within a few thousand instructions. A context
// without cancellation (context.Background()) costs nothing in the
// loop.
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
	m := &machine{
		img:   img,
		pages: map[uint32][]byte{},
		brk:   (img.DataEnd() + 7) &^ 7,
		opts:  opts,
		res: &Result{
			Exec:         make([]int64, len(img.Text)),
			LoadAccesses: make([]int64, len(img.Text)),
		},
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
	for range opts.Caches {
		m.res.LoadMisses = append(m.res.LoadMisses, make([]int64, len(img.Text)))
	}
	m.caches = opts.Caches
	m.onAccess = opts.OnAccess
	if len(opts.Caches) == 1 {
		m.miss0 = m.res.LoadMisses[0]
	}
	m.maxMem = opts.MaxMemBytes
	// Initialise static data a page at a time (DataBase is page-aligned),
	// checking the memory budget as pages materialise so a giant data
	// segment fails fast instead of after allocating it all.
	for off := 0; off < len(img.Data); off += pageSize {
		copy(m.pageFor(obj.DataBase+uint32(off)), img.Data[off:])
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
	m.reg[mach.SP()] = int32(obj.StackTop)
	m.reg[mach.RA()] = 0 // returning from the entry halts
	m.pc = img.Entry
	if ctx.Done() != nil {
		m.ctx = ctx
	}

	if err := m.loop(); err != nil {
		return nil, err
	}
	if opts.CaptureOutput {
		m.res.Output = m.out.String()
	}
	return m.res, nil
}

func (m *machine) fault(format string, args ...any) error {
	return &Error{PC: m.pc, Msg: fmt.Sprintf(format, args...)}
}

func (m *machine) pageFor(addr uint32) []byte {
	base := addr &^ (pageSize - 1)
	if m.lastPage != nil && base == m.lastBase {
		return m.lastPage
	}
	p, ok := m.pages[base]
	if !ok {
		p = make([]byte, pageSize)
		m.pages[base] = p
		m.memBytes += pageSize
	}
	m.lastBase, m.lastPage = base, p
	return p
}

func (m *machine) access(pc uint32, addr uint32, isStore bool) {
	m.res.DataAccesses++
	idx := int(pc-obj.TextBase) / 4
	if !isStore {
		m.res.LoadAccesses[idx]++
	}
	if m.miss0 != nil {
		// Single attached cache: no slice-of-slices indexing per access.
		if !m.caches[0].Access(addr, isStore) && !isStore {
			m.miss0[idx]++
		}
	} else {
		for c, ch := range m.caches {
			if !ch.Access(addr, isStore) && !isStore {
				m.res.LoadMisses[c][idx]++
			}
		}
	}
	if m.onAccess != nil {
		m.onAccess(pc, addr, isStore)
	}
}

func (m *machine) loadWord(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		return 0, m.fault("unaligned word load at %#x", addr)
	}
	p := m.pageFor(addr)
	o := addr % pageSize
	return binary.LittleEndian.Uint32(p[o:]), nil
}

func (m *machine) storeWord(addr uint32, v uint32) error {
	if addr%4 != 0 {
		return m.fault("unaligned word store at %#x", addr)
	}
	p := m.pageFor(addr)
	binary.LittleEndian.PutUint32(p[addr%pageSize:], v)
	return nil
}

func (m *machine) loadHalf(addr uint32) (uint16, error) {
	if addr%2 != 0 {
		return 0, m.fault("unaligned half load at %#x", addr)
	}
	p := m.pageFor(addr)
	return binary.LittleEndian.Uint16(p[addr%pageSize:]), nil
}

func (m *machine) storeHalf(addr uint32, v uint16) error {
	if addr%2 != 0 {
		return m.fault("unaligned half store at %#x", addr)
	}
	p := m.pageFor(addr)
	binary.LittleEndian.PutUint16(p[addr%pageSize:], v)
	return nil
}

func (m *machine) setReg(r isa.Reg, v int32) {
	if r != isa.Zero {
		m.reg[r] = v
	}
}

func (m *machine) loop() error {
	for {
		if m.pc == 0 {
			m.res.Exit = m.reg[isa.V0]
			return nil
		}
		idx := int(m.pc-obj.TextBase) / 4
		if m.pc < obj.TextBase || idx >= len(m.code) || m.pc%4 != 0 {
			return m.fault("control transfer outside text")
		}
		if m.res.Insts >= m.opts.MaxInsts {
			return &Error{
				PC:  m.pc,
				Msg: fmt.Sprintf("instruction budget of %d exhausted", m.opts.MaxInsts),
				Err: ErrBudget,
			}
		}
		if m.res.Insts&8191 == 0 {
			// The slow polls share one mask test so the hot loop pays a
			// single branch: memory can only grow a few pages per
			// instruction, so checking the budget every 8K instructions
			// bounds the overshoot to a few MB past the configured limit.
			if m.maxMem > 0 && m.memBytes > m.maxMem {
				return &Error{
					PC:  m.pc,
					Msg: fmt.Sprintf("memory budget of %d bytes exhausted", m.maxMem),
					Err: ErrMemBudget,
				}
			}
			if m.ctx != nil {
				if err := m.ctx.Err(); err != nil {
					return &Error{PC: m.pc, Msg: "execution cancelled: " + err.Error(), Err: err}
				}
			}
		}
		m.res.Insts++
		m.res.Exec[idx]++
		in := m.code[idx]
		next := m.pc + 4

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
				return m.fault("integer division by zero")
			}
			m.lo = m.reg[in.Rs] / m.reg[in.Rt]
			m.hi = m.reg[in.Rs] % m.reg[in.Rt]
		case isa.DIVU:
			if m.reg[in.Rt] == 0 {
				return m.fault("integer division by zero")
			}
			m.lo = int32(uint32(m.reg[in.Rs]) / uint32(m.reg[in.Rt]))
			m.hi = int32(uint32(m.reg[in.Rs]) % uint32(m.reg[in.Rt]))
		case isa.MFHI:
			m.setReg(in.Rd, m.hi)
		case isa.MFLO:
			m.setReg(in.Rd, m.lo)

		case isa.JR:
			next = uint32(m.reg[in.Rs])
		case isa.JALR:
			m.setReg(in.Rd, int32(m.pc+4))
			next = uint32(m.reg[in.Rs])
		case isa.J:
			next = in.JumpTarget(m.pc)
		case isa.JAL:
			m.reg[isa.RA] = int32(m.pc + 4)
			next = in.JumpTarget(m.pc)
		case isa.BEQ:
			if m.reg[in.Rs] == m.reg[in.Rt] {
				next = in.BranchTarget(m.pc)
			}
		case isa.BNE:
			if m.reg[in.Rs] != m.reg[in.Rt] {
				next = in.BranchTarget(m.pc)
			}
		case isa.BLEZ:
			if m.reg[in.Rs] <= 0 {
				next = in.BranchTarget(m.pc)
			}
		case isa.BGTZ:
			if m.reg[in.Rs] > 0 {
				next = in.BranchTarget(m.pc)
			}
		case isa.BLTZ:
			if m.reg[in.Rs] < 0 {
				next = in.BranchTarget(m.pc)
			}
		case isa.BGEZ:
			if m.reg[in.Rs] >= 0 {
				next = in.BranchTarget(m.pc)
			}
		case isa.BC1T:
			if m.cc {
				next = in.BranchTarget(m.pc)
			}
		case isa.BC1F:
			if !m.cc {
				next = in.BranchTarget(m.pc)
			}

		case isa.SYSCALL, isa.ASVC:
			halt, err := m.syscall()
			if err != nil {
				return err
			}
			if halt {
				return nil
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

		case isa.LW:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			v, err := m.loadWord(addr)
			if err != nil {
				return err
			}
			m.setReg(in.Rt, int32(v))
		case isa.LH:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			v, err := m.loadHalf(addr)
			if err != nil {
				return err
			}
			m.setReg(in.Rt, int32(int16(v)))
		case isa.LHU:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			v, err := m.loadHalf(addr)
			if err != nil {
				return err
			}
			m.setReg(in.Rt, int32(v))
		case isa.LB:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			m.setReg(in.Rt, int32(int8(m.pageFor(addr)[addr%pageSize])))
		case isa.LBU:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			m.setReg(in.Rt, int32(m.pageFor(addr)[addr%pageSize]))
		case isa.SW:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, true)
			if err := m.storeWord(addr, uint32(m.reg[in.Rt])); err != nil {
				return err
			}
		case isa.SH:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, true)
			if err := m.storeHalf(addr, uint16(m.reg[in.Rt])); err != nil {
				return err
			}
		case isa.SB:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, true)
			m.pageFor(addr)[addr%pageSize] = byte(m.reg[in.Rt])
		case isa.LWC1:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			v, err := m.loadWord(addr)
			if err != nil {
				return err
			}
			m.freg[in.Rt] = math.Float32frombits(v)
		case isa.SWC1:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, true)
			if err := m.storeWord(addr, math.Float32bits(m.freg[in.Rt])); err != nil {
				return err
			}

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
				next = in.BranchTarget(m.pc)
			}
		case isa.ABNE:
			if m.cmpA != m.cmpB {
				next = in.BranchTarget(m.pc)
			}
		case isa.ABLT:
			if m.cmpA < m.cmpB {
				next = in.BranchTarget(m.pc)
			}
		case isa.ABGE:
			if m.cmpA >= m.cmpB {
				next = in.BranchTarget(m.pc)
			}
		case isa.ABGT:
			if m.cmpA > m.cmpB {
				next = in.BranchTarget(m.pc)
			}
		case isa.ABLE:
			if m.cmpA <= m.cmpB {
				next = in.BranchTarget(m.pc)
			}
		case isa.AB:
			next = in.BranchTarget(m.pc)
		case isa.ABL:
			m.reg[isa.RA] = int32(m.pc + 4)
			next = in.BranchTarget(m.pc)
		case isa.ABX:
			next = uint32(m.reg[in.Rs])
		case isa.ABLX:
			m.setReg(in.Rd, int32(m.pc+4))
			next = uint32(m.reg[in.Rs])

		case isa.ALDR:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			v, err := m.loadWord(addr)
			if err != nil {
				return err
			}
			m.setReg(in.Rt, int32(v))
		case isa.ALDRH:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			v, err := m.loadHalf(addr)
			if err != nil {
				return err
			}
			m.setReg(in.Rt, int32(v))
		case isa.ALDRSH:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			v, err := m.loadHalf(addr)
			if err != nil {
				return err
			}
			m.setReg(in.Rt, int32(int16(v)))
		case isa.ALDRB:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			m.setReg(in.Rt, int32(m.pageFor(addr)[addr%pageSize]))
		case isa.ALDRSB:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			m.setReg(in.Rt, int32(int8(m.pageFor(addr)[addr%pageSize])))
		case isa.ASTR:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, true)
			if err := m.storeWord(addr, uint32(m.reg[in.Rt])); err != nil {
				return err
			}
		case isa.ASTRH:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, true)
			if err := m.storeHalf(addr, uint16(m.reg[in.Rt])); err != nil {
				return err
			}
		case isa.ASTRB:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, true)
			m.pageFor(addr)[addr%pageSize] = byte(m.reg[in.Rt])
		case isa.ALDRPRE:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			v, err := m.loadWord(addr)
			if err != nil {
				return err
			}
			m.setReg(in.Rs, int32(addr))
			m.setReg(in.Rt, int32(v))
		case isa.ALDRPOST:
			addr := uint32(m.reg[in.Rs])
			m.access(m.pc, addr, false)
			v, err := m.loadWord(addr)
			if err != nil {
				return err
			}
			m.setReg(in.Rs, m.reg[in.Rs]+in.Imm)
			m.setReg(in.Rt, int32(v))
		case isa.ASTRPRE:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, true)
			if err := m.storeWord(addr, uint32(m.reg[in.Rt])); err != nil {
				return err
			}
			m.setReg(in.Rs, int32(addr))
		case isa.ASTRPOST:
			addr := uint32(m.reg[in.Rs])
			m.access(m.pc, addr, true)
			if err := m.storeWord(addr, uint32(m.reg[in.Rt])); err != nil {
				return err
			}
			m.setReg(in.Rs, m.reg[in.Rs]+in.Imm)
		case isa.AVLDR:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, false)
			v, err := m.loadWord(addr)
			if err != nil {
				return err
			}
			m.freg[in.Rt] = math.Float32frombits(v)
		case isa.AVSTR:
			addr := uint32(m.reg[in.Rs] + in.Imm)
			m.access(m.pc, addr, true)
			if err := m.storeWord(addr, math.Float32bits(m.freg[in.Rt])); err != nil {
				return err
			}

		default:
			return m.fault("unimplemented op %v", in.Op)
		}
		m.pc = next
	}
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

func (m *machine) syscall() (halt bool, err error) {
	switch m.reg[isa.V0] {
	case SysPrintInt:
		fmt.Fprintf(&m.out, "%d", m.reg[isa.A0])
	case SysPrintFloat:
		fmt.Fprintf(&m.out, "%g", m.freg[12])
	case SysPrintStr:
		addr := uint32(m.reg[isa.A0])
		var sb []byte
		for {
			b := m.pageFor(addr)[addr%pageSize]
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
			return false, m.fault("heap overflow into stack")
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
		return false, m.fault("unknown syscall %d", m.reg[isa.V0])
	}
	return false, nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
