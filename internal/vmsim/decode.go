package vmsim

import (
	"math"
	"sync"

	"jrpm/internal/tir"
)

// Pre-decoded instruction stream.
//
// tir.Instr is built for compiler passes: a ~100-byte struct with an
// operand field for every opcode, organized into basic blocks whose
// branch targets are block indices. Executing it directly means the
// interpreter re-decodes operands on every step, hops between block
// slices, and checks every instruction for terminator-ness.
//
// Predecode lowers a tir.Program once into a cache-friendly internal
// form: one flat []dinstr per function, compact 48-byte instructions
// whose branch targets are resolved to instruction indices, call
// arguments flattened into a per-function pool, and common sequences
// fused into single decoded instructions (integer const feeding an add,
// an integer compare feeding the block's conditional branch, the
// array-address, local-increment and loop-header chains, and each loop
// annotation trampoline together with the Br, and the increment, of the
// latch that enters it). Fused instructions retain the cycle, step and
// register semantics of the original instructions exactly — including
// per-micro-op step-limit and interrupt checks — so the fast engine
// stays bit-identical to the reference interpreter in
// internal/vmsim/refvm.
//
// Decoding relies on the tir invariants checked by tir.Validate: blocks
// are non-empty, end in exactly one terminator, and branch targets are
// in range. Programs are read-only once published (see the tir.Program
// concurrency contract), which is what makes the decode cache sound.

// dop is a decoded opcode.
type dop uint8

// Decoded opcode space. The first section mirrors tir ops one-to-one;
// the second holds split variants (ret/print) and fused pairs.
const (
	dNop dop = iota
	dConstI
	dConstF
	dMov
	dAdd
	dSub
	dMul
	dDiv
	dMod
	dAnd
	dOr
	dXor
	dShl
	dShr
	dNeg
	dNot
	dFAdd
	dFSub
	dFMul
	dFDiv
	dFNeg
	dEq
	dNe
	dLt
	dLe
	dGt
	dGe
	dFEq
	dFNe
	dFLt
	dFLe
	dFGt
	dFGe
	dI2F
	dF2I
	dLdLoc
	dStLoc
	dLdGlob
	dLoad
	dStore
	dArrLen
	dNewArr
	dBr
	dTrampBr // the Br closing an annotation trampoline; counts NTrampolines
	dBrIf
	dRet
	dRetVal
	dCall
	dPrintI
	dPrintF
	dSLoop
	dELoop
	dEOI
	dLWL
	dSWL
	dReadStats

	// Fused pairs. Each executes the two original instructions' effects
	// and bookkeeping in one dispatch.
	dFusedConstAdd // regs[a] <- imm; regs[dst] <- regs[b] + imm
	dFusedEqBr     // regs[dst] <- a==b; branch t0/t1
	dFusedNeBr
	dFusedLtBr
	dFusedLeBr
	dFusedGtBr
	dFusedGeBr

	// Variable-length superinstructions. x0 indexes a per-function side
	// table carrying the absorbed instructions' operands; every absorbed
	// micro-op still performs its own register writes, counters, step
	// accounting and cycle accounting, so observable behaviour is
	// bit-identical to executing the originals one at a time.
	dFusedAddr     // [LdGlob] [LdLoc] ConstI; Shl; Add — array address chain
	dFusedAddrLoad // the same chain ending in a Load
	dFusedIncLoc   // LdLoc; ConstI; Add; StLoc — i++ and friends
	dFusedLenBr    // [LdLoc] LdGlob; ArrLen; cmp; BrIf — `i < len(a)` loop headers

	// Annotation trampolines (tir.Block.Trampoline: SLoop, ELoop, EOI
	// and ReadStats ops, then a Br). Such a block decodes as a dTramp
	// header followed by its own instructions, decoded one to one; the
	// header and the branches folded into it run the whole block in one
	// dispatch when no micro-op of it can hit the step limit or cross a
	// poll boundary, and otherwise leave it to those one-to-one
	// instructions. x1 is the micro-ops after the first (pre-paid by the
	// batched path) and t0 the header's index.
	dTramp         // the header; stands for the first annotation op
	dBrTramp       // Br into a trampoline
	dFusedIncLocBr // dFusedIncLoc, then the block's Br into a trampoline: the loop latch
)

// Write-back flags. Registers are only observable through later reads
// (the differential contract covers heap, output, cycles, events,
// counters and errors — not dead temporaries), so decode elides the
// write when a fused micro-op's destination register is never read
// outside the chain. A set bit means the register IS read again and the
// write must be materialized. The codegen allocates a fresh register
// per expression temp, so almost every chain intermediate is dead.
const (
	wfBase uint32 = 1 << iota
	wfIdx
	wfC
	wfOff
	wfAddr
	wfLd
	wfAdd
	wfG
	wfLen
	wfCmp
)

// fusedAddrMeta carries the operands of one fused address chain, the
// codegen's array-indexing idiom: optional base load (LdGlob), optional
// index load (LdLoc), then ConstI shift-amount, Shl, Add, optionally
// ending in the Load itself.
type fusedAddrMeta struct {
	shift   int64  // ConstI immediate
	flags   uint32 // write-back mask: wfBase|wfIdx|wfC|wfOff|wfAddr
	rest    int32  // micro-ops after the first (pre-paid by the batched path)
	gidx    int32  // global index of the base load; -1 if base is already in baseReg
	baseReg int32  // LdGlob dst / the Add's base operand
	slot    int32  // LdLoc slot; -1 if the index is already in idxReg
	idxReg  int32  // LdLoc dst / the Shl's A operand
	cReg    int32  // ConstI dst
	offReg  int32  // Shl dst
	addrReg int32  // Add dst
	valReg  int32  // Load dst (dFusedAddrLoad only)
}

// fusedLenBrMeta carries the operands of one fused loop-header test:
// optional LdLoc (the induction variable), LdGlob (the array base),
// ArrLen, an integer compare, and the block's conditional branch.
type fusedLenBrMeta struct {
	flags  uint32 // write-back mask: wfLd|wfG|wfLen|wfCmp
	rest   int32  // micro-ops after the first (pre-paid by the batched path)
	slot   int32  // LdLoc slot; -1 when absent
	ldDst  int32  // LdLoc dst
	gidx   int32  // LdGlob global index
	gDst   int32  // LdGlob dst (the ArrLen operand)
	lenDst int32  // ArrLen dst
	line   int32  // ArrLen source line, for the non-array fault
	cmp    int32  // compare op as a dop (dEq..dGe)
	cmpA   int32
	cmpB   int32
	cmpDst int32
}

// fusedIncMeta carries the operands of one fused local increment:
// LdLoc; ConstI; Add; StLoc.
type fusedIncMeta struct {
	imm    int64  // ConstI immediate
	flags  uint32 // write-back mask: wfLd|wfC|wfAdd
	slot   int32  // LdLoc slot
	ldDst  int32  // LdLoc dst
	cReg   int32  // ConstI dst
	addDst int32  // Add dst (also the StLoc source)
	dslot  int32  // StLoc slot
}

// dinstr is one decoded instruction. Field use per opcode:
//
//	dst, a, b  register operands
//	imm        ConstI value, ConstF bits, fused constant
//	t0, t1     branch targets as instruction indices; t0 is the callee
//	           function index for dCall and the trampoline header for
//	           dTramp, dBrTramp and dFusedIncLocBr
//	x0         slot (locals), loop id (annotations), global index
//	           (dLdGlob), arg-pool offset (dCall), side-table index
//	           (variable-length superinstructions)
//	x1         numLocals (dSLoop), arg count (dCall), pre-paid micro-ops
//	           (trampoline superinstructions)
//	pc, line   program-wide PC for events, source line for faults
type dinstr struct {
	imm  int64
	dst  int32
	a    int32
	b    int32
	t0   int32
	t1   int32
	x0   int32
	x1   int32
	pc   int32
	line int32
	op   dop
}

// dfunc is a decoded function.
type dfunc struct {
	name     string
	instrs   []dinstr
	argPool  []int32
	addrMeta []fusedAddrMeta
	incMeta  []fusedIncMeta
	lenMeta  []fusedLenBrMeta
	// The function's frame on the VM stack: numSlots slots, then its
	// registers, frameSize words in all.
	numSlots  int
	frameSize int
}

// Code is a decoded program, ready for the fast interpreter. It is
// immutable after Predecode and safe to share across VMs and goroutines,
// like the tir.Program it was lowered from.
type Code struct {
	prog  *tir.Program
	funcs []dfunc
}

// codeCache memoizes Predecode per program. Programs are immutable once
// published, so the pointer is a sound key. The cache is bounded: a
// long-lived daemon compiling many programs (jrpmd's artifact cache
// churns) must not pin every decoded image forever, so past the cap an
// arbitrary entry is dropped — decoding is cheap relative to any run
// that needs it back.
var (
	codeCacheMu sync.Mutex
	codeCache   = map[*tir.Program]*Code{}
)

const codeCacheCap = 128

// Predecode lowers prog into its decoded form, memoized per program.
// jrpm.Compile calls it eagerly so the lowering cost lands in the
// compile stage; VMs created for programs compiled elsewhere decode
// lazily on first construction.
func Predecode(prog *tir.Program) *Code {
	codeCacheMu.Lock()
	if c, ok := codeCache[prog]; ok {
		codeCacheMu.Unlock()
		return c
	}
	codeCacheMu.Unlock()

	c := decodeProgram(prog)

	codeCacheMu.Lock()
	if prev, ok := codeCache[prog]; ok {
		codeCacheMu.Unlock()
		return prev
	}
	if len(codeCache) >= codeCacheCap {
		for k := range codeCache {
			delete(codeCache, k)
			break
		}
	}
	codeCache[prog] = c
	codeCacheMu.Unlock()
	return c
}

func decodeProgram(prog *tir.Program) *Code {
	c := &Code{prog: prog, funcs: make([]dfunc, len(prog.Funcs))}
	for fi, f := range prog.Funcs {
		c.funcs[fi] = decodeFunc(f)
	}
	return c
}

// matchAddrChain recognizes the codegen's array-address idiom starting
// at instruction ii: an optional LdGlob (the array base), an optional
// LdLoc (the index), then ConstI, Shl, Add, optionally ending in the
// Load. Every register link must hold or the match fails; the scan loop
// retries shorter suffixes at later positions, so no backtracking is
// needed here.
func matchAddrChain(ins []tir.Instr, ii int) (m fusedAddrMeta, consumed int, withLoad, ok bool) {
	m.gidx, m.slot = -1, -1
	n := len(ins)
	j := ii
	if ins[j].Op == tir.OpLdGlob {
		m.gidx = int32(ins[j].Imm)
		m.baseReg = int32(ins[j].Dst)
		j++
	}
	if j < n && ins[j].Op == tir.OpLdLoc {
		m.slot = int32(ins[j].Slot)
		m.idxReg = int32(ins[j].Dst)
		j++
	}
	if j+2 >= n || ins[j].Op != tir.OpConstI || ins[j+1].Op != tir.OpShl || ins[j+2].Op != tir.OpAdd {
		return m, 0, false, false
	}
	ci, si, ai := &ins[j], &ins[j+1], &ins[j+2]
	if si.B != ci.Dst {
		return m, 0, false, false
	}
	if m.slot >= 0 {
		if int32(si.A) != m.idxReg {
			return m, 0, false, false
		}
	} else {
		m.idxReg = int32(si.A)
	}
	var base int32
	switch {
	case si.Dst == ai.A:
		base = int32(ai.B)
	case si.Dst == ai.B:
		base = int32(ai.A)
	default:
		return m, 0, false, false
	}
	if m.gidx >= 0 {
		if base != m.baseReg {
			return m, 0, false, false
		}
	} else {
		m.baseReg = base
	}
	m.shift = ci.Imm
	m.cReg = int32(ci.Dst)
	m.offReg = int32(si.Dst)
	m.addrReg = int32(ai.Dst)
	// The fast path reads the chain's dataflow through locals, which is
	// only equivalent when no chain register aliases another. The
	// codegen allocates a fresh register per temp so this never rejects
	// real programs; it is a guard against hand-crafted TIR.
	if m.cReg == m.offReg || m.cReg == m.addrReg || m.offReg == m.addrReg {
		return m, 0, false, false
	}
	for _, r := range [...]int32{m.cReg, m.offReg, m.addrReg} {
		if r == m.idxReg || r == m.baseReg {
			return m, 0, false, false
		}
	}
	if m.slot >= 0 && m.gidx < 0 && m.baseReg == m.idxReg {
		return m, 0, false, false
	}
	if m.slot >= 0 && m.gidx >= 0 && m.baseReg == m.idxReg {
		return m, 0, false, false
	}
	consumed = j + 3 - ii
	if j+3 < n && ins[j+3].Op == tir.OpLoad && ins[j+3].A == ai.Dst {
		m.valReg = int32(ins[j+3].Dst)
		return m, consumed + 1, true, true
	}
	return m, consumed, false, true
}

// cmpDop maps an integer-compare tir op to its decoded opcode, or dNop
// when the op is not an integer compare.
func cmpDop(op tir.Op) dop {
	switch op {
	case tir.OpEq:
		return dEq
	case tir.OpNe:
		return dNe
	case tir.OpLt:
		return dLt
	case tir.OpLe:
		return dLe
	case tir.OpGt:
		return dGt
	case tir.OpGe:
		return dGe
	}
	return dNop
}

// matchLenBr recognizes the loop-header idiom `i < len(a)` feeding the
// block's conditional branch: optional LdLoc, then LdGlob, ArrLen on
// it, an integer compare, and the terminating BrIf.
func matchLenBr(ins []tir.Instr, ii int) (m fusedLenBrMeta, consumed int, ok bool) {
	m.slot = -1
	j := ii
	n := len(ins)
	if ins[j].Op == tir.OpLdLoc {
		m.slot = int32(ins[j].Slot)
		m.ldDst = int32(ins[j].Dst)
		j++
	}
	if j+3 >= n || ins[j].Op != tir.OpLdGlob || ins[j+1].Op != tir.OpArrLen ||
		ins[j+3].Op != tir.OpBrIf {
		return m, 0, false
	}
	gl, al, cm, br := &ins[j], &ins[j+1], &ins[j+2], &ins[j+3]
	cd := cmpDop(cm.Op)
	if cd == dNop || al.A != gl.Dst || br.A != cm.Dst {
		return m, 0, false
	}
	// Alias guards (see matchAddrChain): the fast path reads the chain
	// through locals, so chain registers must be distinct, and the
	// compare must consume the chain's own values in the canonical
	// `i < len(a)` shape.
	if gl.Dst == al.Dst || int32(gl.Dst) == m.ldDst || int32(al.Dst) == m.ldDst {
		return m, 0, false
	}
	if int32(cm.B) != int32(al.Dst) {
		return m, 0, false
	}
	if m.slot >= 0 {
		if int32(cm.A) != m.ldDst {
			return m, 0, false
		}
	} else if cm.A == gl.Dst || cm.A == al.Dst {
		return m, 0, false
	}
	m.gidx = int32(gl.Imm)
	m.gDst = int32(gl.Dst)
	m.lenDst = int32(al.Dst)
	m.line = int32(al.Line)
	m.cmp = int32(cd)
	m.cmpA = int32(cm.A)
	m.cmpB = int32(cm.B)
	m.cmpDst = int32(cm.Dst)
	return m, j + 4 - ii, true
}

// matchIncLoc recognizes a fused local update: LdLoc; ConstI; Add
// consuming both; StLoc of the sum. This is `i++`, `i += k` and any
// `x = y + const` statement.
func matchIncLoc(ins []tir.Instr, ii int) (m fusedIncMeta, ok bool) {
	if ii+3 >= len(ins) {
		return m, false
	}
	ld, c, add, st := &ins[ii], &ins[ii+1], &ins[ii+2], &ins[ii+3]
	if ld.Op != tir.OpLdLoc || c.Op != tir.OpConstI || add.Op != tir.OpAdd || st.Op != tir.OpStLoc {
		return m, false
	}
	if !((add.A == ld.Dst && add.B == c.Dst) || (add.A == c.Dst && add.B == ld.Dst)) {
		return m, false
	}
	if st.A != add.Dst {
		return m, false
	}
	// Alias guard: with distinct operands the sum is old+imm regardless
	// of operand order, and the fast path can compute it from locals.
	if ld.Dst == c.Dst {
		return m, false
	}
	return fusedIncMeta{
		imm:    c.Imm,
		slot:   int32(ld.Slot),
		ldDst:  int32(ld.Dst),
		cReg:   int32(c.Dst),
		addDst: int32(add.Dst),
		dslot:  int32(st.Slot),
	}, true
}

// fuseAt reports the fused instruction starting at ii, if any, and how
// many source instructions it consumes (1 = no fusion). Longest match
// wins. Both decode passes call it, so it must be deterministic.
func fuseAt(b *tir.Block, ii int) (dop, int) {
	if _, consumed, ok := matchLenBr(b.Instrs, ii); ok {
		return dFusedLenBr, consumed
	}
	if _, consumed, withLoad, ok := matchAddrChain(b.Instrs, ii); ok {
		if withLoad {
			return dFusedAddrLoad, consumed
		}
		return dFusedAddr, consumed
	}
	if _, ok := matchIncLoc(b.Instrs, ii); ok {
		return dFusedIncLoc, 4
	}
	if fk := fuseKind(b, ii); fk != dNop {
		return fk, 2
	}
	return dNop, 1
}

// fuseKind classifies what pair, if any, starts at instruction ii of b.
// Returns the decoded opcode of the fused instruction, or dNop for no
// fusion.
func fuseKind(b *tir.Block, ii int) dop {
	in := &b.Instrs[ii]
	if ii+1 >= len(b.Instrs) {
		return dNop
	}
	next := &b.Instrs[ii+1]
	switch in.Op {
	case tir.OpConstI:
		// const feeding exactly one operand of an integer add.
		if next.Op == tir.OpAdd && (next.A == in.Dst) != (next.B == in.Dst) {
			return dFusedConstAdd
		}
	case tir.OpEq, tir.OpNe, tir.OpLt, tir.OpLe, tir.OpGt, tir.OpGe:
		// compare feeding the block's conditional branch.
		if next.Op == tir.OpBrIf && next.A == in.Dst {
			switch in.Op {
			case tir.OpEq:
				return dFusedEqBr
			case tir.OpNe:
				return dFusedNeBr
			case tir.OpLt:
				return dFusedLtBr
			case tir.OpLe:
				return dFusedLeBr
			case tir.OpGt:
				return dFusedGtBr
			case tir.OpGe:
				return dFusedGeBr
			}
		}
	}
	return dNop
}

// readCounts returns how many times each register is read anywhere in
// the function. Conservative by construction: A and B are counted for
// every opcode whether or not that opcode reads them, so unused
// zero-valued operand fields only ever overcount (which suppresses a
// dead-write elision, never enables a wrong one).
func readCounts(f *tir.Function) []int32 {
	reads := make([]int32, f.NumRegs)
	count := func(r tir.Reg) {
		if int(r) >= 0 && int(r) < len(reads) {
			reads[int(r)]++
		}
	}
	for bi := range f.Blocks {
		ins := f.Blocks[bi].Instrs
		for ii := range ins {
			count(ins[ii].A)
			count(ins[ii].B)
			for _, a := range ins[ii].Args {
				count(a)
			}
		}
	}
	return reads
}

func decodeFunc(f *tir.Function) dfunc {
	df := dfunc{
		name:      f.Name,
		numSlots:  len(f.Locals),
		frameSize: len(f.Locals) + f.NumRegs,
	}

	// Pass 1: choose fusions and compute each block's start index in the
	// flat stream. Fusion never crosses a block boundary and branch
	// targets are always block starts, so fusing inside a block cannot
	// invalidate a target. A trampoline starts at its header.
	starts := make([]int, len(f.Blocks))
	n := 0
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		starts[bi] = n
		if trampLen(f.Blocks, bi) > 0 {
			n++
		}
		for ii := 0; ii < len(b.Instrs); {
			_, consumed := fuseAt(b, ii)
			ii += consumed
			n++
		}
	}
	df.instrs = make([]dinstr, 0, n)
	reads := readCounts(f)
	// live reports whether a chain-internal destination register is read
	// anywhere beyond its single in-chain consumer and therefore needs
	// its write materialized.
	live := func(r int32) bool { return reads[r] > 1 }

	// Pass 2: emit.
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if tl := trampLen(f.Blocks, bi); tl > 0 {
			df.instrs = append(df.instrs, dinstr{
				op: dTramp, t0: int32(starts[bi]), x1: int32(tl - 1),
				pc: int32(b.Instrs[0].PC), line: int32(b.Instrs[0].Line),
			})
		}
		for ii := 0; ii < len(b.Instrs); {
			in := &b.Instrs[ii]
			fk, consumed := fuseAt(b, ii)
			switch fk {
			case dNop:
				df.instrs = append(df.instrs, decodeInstr(&df, f.Blocks, b, starts, in))
			case dFusedAddr, dFusedAddrLoad:
				m, _, _, _ := matchAddrChain(b.Instrs, ii)
				m.rest = int32(consumed - 1)
				if m.gidx >= 0 && live(m.baseReg) {
					m.flags |= wfBase
				}
				if m.slot >= 0 && live(m.idxReg) {
					m.flags |= wfIdx
				}
				if live(m.cReg) {
					m.flags |= wfC
				}
				if live(m.offReg) {
					m.flags |= wfOff
				}
				// Without the Load, the address register feeds a later
				// instruction (typically the Store) by definition.
				if fk == dFusedAddr || live(m.addrReg) {
					m.flags |= wfAddr
				}
				// pc and line come from the chain's final instruction:
				// the Load is the only micro-op that emits an event or
				// can fault.
				last := &b.Instrs[ii+consumed-1]
				df.instrs = append(df.instrs, dinstr{
					op: fk, x0: int32(len(df.addrMeta)),
					pc: int32(last.PC), line: int32(last.Line),
				})
				df.addrMeta = append(df.addrMeta, m)
			case dFusedLenBr:
				m, _, _ := matchLenBr(b.Instrs, ii)
				m.rest = int32(consumed - 1)
				if m.slot >= 0 && live(m.ldDst) {
					m.flags |= wfLd
				}
				if live(m.gDst) {
					m.flags |= wfG
				}
				if live(m.lenDst) {
					m.flags |= wfLen
				}
				if live(m.cmpDst) {
					m.flags |= wfCmp
				}
				df.instrs = append(df.instrs, dinstr{
					op: dFusedLenBr, x0: int32(len(df.lenMeta)),
					t0: int32(starts[b.Targets[0]]),
					t1: int32(starts[b.Targets[1]]),
					pc: int32(in.PC), line: int32(in.Line),
				})
				df.lenMeta = append(df.lenMeta, m)
			case dFusedIncLoc:
				m, _ := matchIncLoc(b.Instrs, ii)
				if live(m.ldDst) {
					m.flags |= wfLd
				}
				if live(m.cReg) {
					m.flags |= wfC
				}
				if live(m.addDst) {
					m.flags |= wfAdd
				}
				d := dinstr{
					op: dFusedIncLoc, x0: int32(len(df.incMeta)),
					pc: int32(in.PC), line: int32(in.Line),
				}
				// The loop latch: the increment is all that precedes the
				// block's Br into a trampoline. The Br still decodes in the
				// next slot, where the fallback falls through to it.
				if ii+consumed == len(b.Instrs)-1 && b.Instrs[ii+consumed].Op == tir.OpBr && !b.Trampoline {
					if tl := trampLen(f.Blocks, b.Targets[0]); tl > 0 {
						d.op = dFusedIncLocBr
						d.t0 = int32(starts[b.Targets[0]])
						d.x1 = int32(4 + tl) // three increment micro-ops, the Br, the trampoline
					}
				}
				df.instrs = append(df.instrs, d)
				df.incMeta = append(df.incMeta, m)
			case dFusedConstAdd:
				next := &b.Instrs[ii+1]
				d := dinstr{op: fk, pc: int32(in.PC), line: int32(in.Line)}
				d.imm = in.Imm
				d.a = int32(in.Dst) // const destination
				d.dst = int32(next.Dst)
				if next.A == in.Dst { // integer add commutes
					d.b = int32(next.B)
				} else {
					d.b = int32(next.A)
				}
				// x1 flags whether the const register outlives the add.
				if live(d.a) {
					d.x1 = 1
				}
				df.instrs = append(df.instrs, d)
			default: // fused compare-and-branch
				d := dinstr{op: fk, pc: int32(in.PC), line: int32(in.Line)}
				d.dst = int32(in.Dst)
				d.a = int32(in.A)
				d.b = int32(in.B)
				d.t0 = int32(starts[b.Targets[0]])
				d.t1 = int32(starts[b.Targets[1]])
				df.instrs = append(df.instrs, d)
			}
			ii += consumed
		}
	}
	return df
}

// trampLen returns the instruction count of block bi if it is an
// annotation trampoline the engine runs as one superinstruction (only
// loop annotations, then a Br), and 0 otherwise.
func trampLen(blocks []tir.Block, bi int) int {
	b := &blocks[bi]
	n := len(b.Instrs)
	if !b.Trampoline || n < 2 || b.Instrs[n-1].Op != tir.OpBr {
		return 0
	}
	for _, in := range b.Instrs[:n-1] {
		switch in.Op {
		case tir.OpSLoop, tir.OpELoop, tir.OpEOI, tir.OpReadStats:
		default:
			return 0
		}
	}
	return n
}

// decodeInstr lowers one unfused instruction of block b.
func decodeInstr(df *dfunc, blocks []tir.Block, b *tir.Block, starts []int, in *tir.Instr) dinstr {
	d := dinstr{
		dst:  int32(in.Dst),
		a:    int32(in.A),
		b:    int32(in.B),
		pc:   int32(in.PC),
		line: int32(in.Line),
	}
	switch in.Op {
	case tir.OpNop:
		d.op = dNop
	case tir.OpConstI:
		d.op, d.imm = dConstI, in.Imm
	case tir.OpConstF:
		d.op, d.imm = dConstF, int64(math.Float64bits(in.FImm))
	case tir.OpMov:
		d.op = dMov
	case tir.OpAdd:
		d.op = dAdd
	case tir.OpSub:
		d.op = dSub
	case tir.OpMul:
		d.op = dMul
	case tir.OpDiv:
		d.op = dDiv
	case tir.OpMod:
		d.op = dMod
	case tir.OpAnd:
		d.op = dAnd
	case tir.OpOr:
		d.op = dOr
	case tir.OpXor:
		d.op = dXor
	case tir.OpShl:
		d.op = dShl
	case tir.OpShr:
		d.op = dShr
	case tir.OpNeg:
		d.op = dNeg
	case tir.OpNot:
		d.op = dNot
	case tir.OpFAdd:
		d.op = dFAdd
	case tir.OpFSub:
		d.op = dFSub
	case tir.OpFMul:
		d.op = dFMul
	case tir.OpFDiv:
		d.op = dFDiv
	case tir.OpFNeg:
		d.op = dFNeg
	case tir.OpEq:
		d.op = dEq
	case tir.OpNe:
		d.op = dNe
	case tir.OpLt:
		d.op = dLt
	case tir.OpLe:
		d.op = dLe
	case tir.OpGt:
		d.op = dGt
	case tir.OpGe:
		d.op = dGe
	case tir.OpFEq:
		d.op = dFEq
	case tir.OpFNe:
		d.op = dFNe
	case tir.OpFLt:
		d.op = dFLt
	case tir.OpFLe:
		d.op = dFLe
	case tir.OpFGt:
		d.op = dFGt
	case tir.OpFGe:
		d.op = dFGe
	case tir.OpI2F:
		d.op = dI2F
	case tir.OpF2I:
		d.op = dF2I
	case tir.OpLdLoc:
		d.op, d.x0 = dLdLoc, int32(in.Slot)
	case tir.OpStLoc:
		d.op, d.x0 = dStLoc, int32(in.Slot)
	case tir.OpLdGlob:
		d.op, d.x0 = dLdGlob, int32(in.Imm)
	case tir.OpLoad:
		d.op = dLoad
	case tir.OpStore:
		d.op = dStore
	case tir.OpArrLen:
		d.op = dArrLen
	case tir.OpNewArr:
		d.op = dNewArr
	case tir.OpBr:
		d.op, d.t0 = dBr, int32(starts[b.Targets[0]])
		if b.Trampoline {
			d.op = dTrampBr
		} else if tl := trampLen(blocks, b.Targets[0]); tl > 0 {
			d.op, d.x1 = dBrTramp, int32(tl)
		}
	case tir.OpBrIf:
		d.op = dBrIf
		d.t0 = int32(starts[b.Targets[0]])
		d.t1 = int32(starts[b.Targets[1]])
	case tir.OpRet:
		if in.HasVal {
			d.op = dRetVal
		} else {
			d.op = dRet
		}
	case tir.OpCall:
		d.op = dCall
		d.t0 = int32(in.Func)
		d.x0 = int32(len(df.argPool))
		d.x1 = int32(len(in.Args))
		for _, a := range in.Args {
			df.argPool = append(df.argPool, int32(a))
		}
	case tir.OpPrint:
		if in.IsF {
			d.op = dPrintF
		} else {
			d.op = dPrintI
		}
	case tir.OpSLoop:
		d.op, d.x0, d.x1 = dSLoop, int32(in.Loop), int32(in.Imm)
	case tir.OpELoop:
		d.op, d.x0 = dELoop, int32(in.Loop)
	case tir.OpEOI:
		d.op, d.x0 = dEOI, int32(in.Loop)
	case tir.OpLWL:
		d.op, d.x0 = dLWL, int32(in.Slot)
	case tir.OpSWL:
		d.op, d.x0 = dSWL, int32(in.Slot)
	case tir.OpReadStats:
		d.op, d.x0 = dReadStats, int32(in.Loop)
	default:
		// Unknown opcodes survive decoding and fault at execution time
		// with the reference interpreter's message.
		d.op = dop(255)
		d.x0 = int32(in.Op)
	}
	return d
}
