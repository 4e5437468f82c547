// Package tir defines the Tiny Intermediate Representation: the
// register-machine bytecode that the JR compiler targets and that the
// sequential VM (internal/vmsim) executes.
//
// TIR plays the role of the annotated native MIPS code in the paper: it
// carries ordinary computation instructions plus the TEST annotating
// instructions of Table 4 (sloop, eloop, eoi, lwl, swl and the
// read-statistics call) that the annotation pass (internal/annotate)
// inserts around potential speculative thread loops.
//
// Functions are built from explicit basic blocks. Every block ends with a
// terminator (Br, BrIf or Ret); there is no fallthrough. Values live in
// per-frame virtual registers; *named* local variables additionally live in
// numbered slots so that local-variable accesses remain visible events for
// the tracer (the paper distinguishes named locals, which can carry
// loop-borne dependencies, from block-local temporaries, which cannot).
package tir

import (
	"fmt"
	"maps"
	"slices"
	"unsafe"
)

// Op enumerates TIR opcodes.
type Op uint8

// Opcode space. Integer values are stored as int64, floats as float64; a
// register holds the raw 64-bit pattern and the opcode fixes the
// interpretation (as in a real ISA).
const (
	OpNop Op = iota

	// Constants and moves.
	OpConstI // dst <- Imm
	OpConstF // dst <- FImm
	OpMov    // dst <- a

	// Integer arithmetic.
	OpAdd // dst <- a + b
	OpSub
	OpMul
	OpDiv // traps on zero divisor
	OpMod // traps on zero divisor
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // arithmetic shift right
	OpNeg // dst <- -a
	OpNot // dst <- !a (logical: a==0 -> 1 else 0)

	// Float arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg

	// Comparisons produce 0/1 ints.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpFEq
	OpFNe
	OpFLt
	OpFLe
	OpFGt
	OpFGe

	// Conversions.
	OpI2F // dst <- float(a)
	OpF2I // dst <- int(a), truncating

	// Named-local access. Slot selects the local.
	OpLdLoc // dst <- slot
	OpStLoc // slot <- a

	// Global array handles.
	OpLdGlob // dst <- base address of global array Imm

	// Heap access. Addresses are byte addresses; each element occupies a
	// 4-byte word (Hydra is a 32-bit MIPS CMP), 8 words per 32-byte cache
	// line. a holds the address.
	OpLoad   // dst <- mem[a]
	OpStore  // mem[a] <- b
	OpArrLen // dst <- length (in elements) of array with base address a
	OpNewArr // dst <- base address of fresh array of a elements

	// Control flow (terminators).
	OpBr   // goto Targets[0]
	OpBrIf // if a != 0 goto Targets[0] else Targets[1]
	OpRet  // return a (HasVal) or nothing

	// Calls.
	OpCall // dst <- Funcs[Func](Args...)

	// Debug output.
	OpPrint // print a (int or float per IsF)

	// TEST annotating instructions (Table 4).
	OpSLoop     // enter potential STL Loop; reserve Imm local timestamps
	OpELoop     // exit potential STL Loop; free Imm local timestamps
	OpEOI       // end-of-iteration for STL Loop
	OpLWL       // local variable load annotation for Slot
	OpSWL       // local variable store annotation for Slot
	OpReadStats // read collected statistics for STL Loop (software routine)
)

// Reg is a virtual register index within a frame.
type Reg int32

// NoReg marks an unused register operand.
const NoReg Reg = -1

// Instr is one TIR instruction. Fields are used per-opcode; unused fields
// are zero. PC is a program-wide unique id assigned by Program.AssignPCs
// and is what the extended tracer bins dependency arcs by.
type Instr struct {
	Op     Op
	Dst    Reg
	A, B   Reg
	Imm    int64
	FImm   float64
	Slot   int   // named-local slot for LdLoc/StLoc/LWL/SWL
	Func   int   // callee index for Call
	Loop   int   // static loop id for SLoop/ELoop/EOI/ReadStats
	Args   []Reg // Call arguments
	HasVal bool  // Ret carries a value
	IsF    bool  // Print/Ret value is a float
	PC     int   // program-wide instruction id
	Line   int   // source line, 0 if unknown
}

// Block is a basic block: straight-line instructions ending in exactly one
// terminator, whose successor block indices live in Targets.
type Block struct {
	Instrs  []Instr
	Targets []int // successor block indices (empty for Ret)
	// Trampoline marks an annotation block spliced onto a CFG edge; the
	// engines count its closing Br, a jump the clean program never takes.
	Trampoline bool
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// IsTerminator reports whether op ends a basic block.
func IsTerminator(op Op) bool {
	return op == OpBr || op == OpBrIf || op == OpRet
}

// Kind is a JR value kind as seen by TIR (used for globals and function
// signatures; registers themselves are untyped bit patterns).
type Kind uint8

// Value kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindBool
	KindIntArr
	KindFloatArr
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindIntArr:
		return "int[]"
	case KindFloatArr:
		return "float[]"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Local describes one named local variable (or parameter) of a function.
type Local struct {
	Name  string
	Kind  Kind
	Param bool
}

// Function is a compiled JR function.
type Function struct {
	Name    string
	Params  int // first Params locals are parameters
	Locals  []Local
	NumRegs int
	Blocks  []Block
	Result  Kind
	HasRes  bool
}

// GlobalArray is a harness-bound array global.
type GlobalArray struct {
	Name string
	Kind Kind // KindIntArr or KindFloatArr
}

// LoopInfo records one potential STL discovered by the compiler. IDs are
// dense program-wide. The annotation pass fills this table.
type LoopInfo struct {
	ID          int
	Func        int    // owning function index
	Header      int    // header block index within the function
	Name        string // "func:line" style label for reports
	Line        int
	StaticDepth int    // nesting depth within its function (outermost = 1)
	Blocks      []int  // member block indices
	NumLocals   int    // annotated local-variable timestamp reservations
	AnnLocals   []int  // named-local slots tracked for this loop
	Hoisted     bool   // read-statistics call hoisted out of this loop
	Candidate   bool   // passed the scalar screen of section 4.1
	Reject      string // why the scalar screen rejected it, if it did
	// Scalars is the scalar screen's verdict on every named local the
	// loop accesses, ascending by slot. The recompiler (jit) plans a
	// selected loop from it rather than analyzing the loop again. It
	// follows from the hashed instructions, so trace.ProgramHash leaves
	// it out.
	Scalars []SlotClass
}

// SlotClass is the class the scalar screen gave one named local with
// respect to one loop; Class holds a scalar.Class value.
type SlotClass struct {
	Slot  int32
	Class uint8
}

// Program is a complete compiled JR program.
//
// Concurrency contract: a Program is read-only once the compile stage
// (lang.Compile + opt.Program + annotate.Apply) has finished. The VM
// (vmsim), tracer (core), recorder (tls), recompiler (jit) and profile
// analysis only read it, so one Program — and the jrpm.Compiled artifact
// wrapping it — may be shared across any number of goroutines without
// locking. This is what lets the jrpmd artifact cache hand the same
// compiled program to every worker; TestCompiledSharedAcrossGoroutines
// enforces it under the race detector. Passes that mutate a Program
// (annotate.Apply, opt.Program) must run before it is published.
type Program struct {
	Funcs     []*Function
	FuncIndex map[string]int
	Globals   []GlobalArray
	GlobIndex map[string]int
	Loops     []LoopInfo
	NumPCs    int
}

// Lookup returns the function with the given name.
func (p *Program) Lookup(name string) (*Function, int, bool) {
	i, ok := p.FuncIndex[name]
	if !ok {
		return nil, 0, false
	}
	return p.Funcs[i], i, true
}

// AssignPCs numbers every instruction with a program-wide unique PC and
// records the count. Call after all passes that insert instructions.
func (p *Program) AssignPCs() {
	pc := 0
	for _, f := range p.Funcs {
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			for ii := range b.Instrs {
				b.Instrs[ii].PC = pc
				pc++
			}
		}
	}
	p.NumPCs = pc
}

// FindPC returns the function name and source line of a program-wide PC,
// for mapping the extended tracer's per-PC dependency bins back to source
// (section 6.3's programmer feedback).
func (p *Program) FindPC(pc int) (fn string, line int, ok bool) {
	for _, f := range p.Funcs {
		for bi := range f.Blocks {
			for ii := range f.Blocks[bi].Instrs {
				in := &f.Blocks[bi].Instrs[ii]
				if in.PC == pc {
					return f.Name, in.Line, true
				}
			}
		}
	}
	return "", 0, false
}

// NumInstrs counts instructions across the whole program.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// NumInstrs counts the function's instructions across all blocks. The
// VM's decode stage uses it to size the flat pre-decoded instruction
// stream before lowering.
func (f *Function) NumInstrs() int {
	n := 0
	for bi := range f.Blocks {
		n += len(f.Blocks[bi].Instrs)
	}
	return n
}

// HeapBytes estimates the heap p occupies: its structs, the backing
// arrays of its slices at their capacity, the bytes of its names and its
// two name indexes. A service cache charges a program's artifact by it.
func (p *Program) HeapBytes() int64 {
	const mapEntry = 48 // key header, value and bucket share of a map entry
	n := int64(unsafe.Sizeof(*p)) + int64(cap(p.Funcs))*8
	for _, f := range p.Funcs {
		n += int64(unsafe.Sizeof(*f)) + int64(len(f.Name)) +
			int64(cap(f.Locals))*int64(unsafe.Sizeof(Local{})) +
			int64(cap(f.Blocks))*int64(unsafe.Sizeof(Block{}))
		for _, l := range f.Locals {
			n += int64(len(l.Name))
		}
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			n += int64(cap(b.Instrs))*int64(unsafe.Sizeof(Instr{})) + int64(cap(b.Targets))*8
			for ii := range b.Instrs {
				n += int64(cap(b.Instrs[ii].Args)) * int64(unsafe.Sizeof(Reg(0)))
			}
		}
	}
	n += int64(cap(p.Globals)) * int64(unsafe.Sizeof(GlobalArray{}))
	for _, g := range p.Globals {
		n += int64(len(g.Name))
	}
	n += int64(cap(p.Loops)) * int64(unsafe.Sizeof(LoopInfo{}))
	for i := range p.Loops {
		l := &p.Loops[i]
		n += int64(len(l.Name)+len(l.Reject)) + int64(cap(l.Blocks)+cap(l.AnnLocals)+cap(l.Scalars))*8
	}
	return n + int64(len(p.FuncIndex)+len(p.GlobIndex))*mapEntry
}

// Clone returns a deep copy of p: no slice or map of the copy shares
// storage with p, so a pass may rewrite the copy while p stays intact.
// Each function's instructions, branch targets and call arguments are
// carved out of one backing array per kind, with capacities capped so
// that appending to one block never writes into the next.
func (p *Program) Clone() *Program {
	q := *p
	q.Funcs = make([]*Function, len(p.Funcs))
	for i, f := range p.Funcs {
		q.Funcs[i] = f.clone()
	}
	q.FuncIndex = maps.Clone(p.FuncIndex)
	q.Globals = slices.Clone(p.Globals)
	q.GlobIndex = maps.Clone(p.GlobIndex)
	q.Loops = slices.Clone(p.Loops)
	for i := range q.Loops {
		q.Loops[i].Blocks = slices.Clone(q.Loops[i].Blocks)
		q.Loops[i].AnnLocals = slices.Clone(q.Loops[i].AnnLocals)
		q.Loops[i].Scalars = slices.Clone(q.Loops[i].Scalars)
	}
	return &q
}

func (f *Function) clone() *Function {
	g := *f
	g.Locals = slices.Clone(f.Locals)
	g.Blocks = PackBlocks(f.Blocks)
	return &g
}

// PackBlocks returns a copy of blocks at their final size: every block's
// instructions are carved out of one exact-size backing array, and so
// are every call's arguments and every block's targets, each window
// with its capacity capped so that appending to one block never writes
// into the next. Empty targets come out nil. Code generation builds a
// function in reused scratch and copies it out with PackBlocks; Clone
// copies with it too.
func PackBlocks(blocks []Block) []Block {
	out := make([]Block, len(blocks))
	nInstrs, nTargets, nArgs := 0, 0, 0
	for bi := range blocks {
		b := &blocks[bi]
		nInstrs += len(b.Instrs)
		nTargets += len(b.Targets)
		for ii := range b.Instrs {
			nArgs += len(b.Instrs[ii].Args)
		}
	}
	instrs := make([]Instr, 0, nInstrs)
	targets := make([]int, 0, nTargets)
	args := make([]Reg, 0, nArgs)
	for bi := range blocks {
		b := &blocks[bi]
		nb := &out[bi]
		*nb = *b
		n := len(instrs)
		instrs = append(instrs, b.Instrs...)
		nb.Instrs = instrs[n:len(instrs):len(instrs)]
		for ii := range nb.Instrs {
			if a := nb.Instrs[ii].Args; a != nil {
				n := len(args)
				args = append(args, a...)
				nb.Instrs[ii].Args = args[n:len(args):len(args)]
			}
		}
		nb.Targets = nil
		if len(b.Targets) > 0 {
			n := len(targets)
			targets = append(targets, b.Targets...)
			nb.Targets = targets[n:len(targets):len(targets)]
		}
	}
	return out
}
