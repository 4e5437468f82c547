// Package refvm is the reference oracle for the TIR virtual machine: the
// original block-at-a-time interpreter that internal/vmsim used before
// its hot path was rebuilt on a pre-decoded instruction stream. It is
// deliberately simple — operands are decoded from tir.Instr on every
// step and every trace event is handed to each listener immediately, as
// a one-event batch — and it is always compiled (no build tags), so
// the differential harness (TestVMDifferential, FuzzVMDiff) can hold the
// fast engine bit-identical to it: same cycle counts, same event stream,
// same heap contents, same printed output, same counters, same errors.
//
// Semantic changes must land here first; the fast engine then has to
// reproduce them exactly or the differential suite fails.
package refvm

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// VM is the reference sequential TIR interpreter. Its exported surface
// mirrors vmsim.VM so harnesses can drive both engines with the same
// code; listener, slot and error types are shared with vmsim.
type VM struct {
	Prog      *tir.Program
	Mem       []uint64 // one 64-bit value per 4-byte word slot
	Cycles    int64
	Listeners []vmsim.Listener
	Out       io.Writer
	MaxSteps  int64 // 0 = default (2^40)

	// Costs for annotation instructions; zero values mean "use defaults
	// from hydra.DefaultConfig().Tracer".
	AnnotCost     int64
	ReadStatsCost int64

	arrays      map[uint32]int64 // base address -> element count
	globals     []uint32         // base address per global index
	heapTop     uint32
	frameSeq    uint64
	steps       int64
	depth       int            // live calls below the entry function
	one         [1]vmsim.Event // the batch every event is delivered in
	interrupted atomic.Bool

	// Instruction mix counters for reports.
	NHeapLoads   int64
	NHeapStores  int64
	NLocalLoads  int64 // every named-local read, annotated or not
	NLocalStores int64
	NLocalAnnot  int64
	NLoopAnnot   int64
	NReadStats   int64
	NTrampolines int64 // Br instructions closing annotation trampolines
}

// interruptMask matches vmsim's throttled interrupt poll: one atomic
// load per 8192 executed instructions.
const interruptMask = 1<<13 - 1

// New creates a reference VM for prog.
func New(prog *tir.Program) *VM {
	t := hydra.DefaultConfig().Tracer
	return &VM{
		Prog:          prog,
		arrays:        map[uint32]int64{},
		globals:       make([]uint32, len(prog.Globals)),
		heapTop:       hydra.LineSize, // keep address 0 unused
		AnnotCost:     t.AnnotCost,
		ReadStatsCost: t.ReadStatsCost,
		Out:           io.Discard,
	}
}

// Alloc reserves a line-aligned array of n elements and returns its base
// address, in 64-bit arithmetic up to vmsim.MaxHeapBytes.
func (vm *VM) Alloc(n int64) (uint32, error) {
	if n < 0 {
		return 0, fmt.Errorf("vmsim: negative allocation %d", n)
	}
	bytes := (uint64(n)*hydra.WordSize + hydra.LineSize - 1) &^ (hydra.LineSize - 1) // exact once n is in bounds
	if n > vmsim.MaxHeapBytes || uint64(vm.heapTop)+bytes > vmsim.MaxHeapBytes {
		return 0, fmt.Errorf("vmsim: allocation of %d elements exceeds the %d-byte heap", n, vmsim.MaxHeapBytes)
	}
	base := vm.heapTop
	vm.heapTop += uint32(bytes)
	need := int(vm.heapTop / hydra.WordSize)
	if need > len(vm.Mem) {
		grown := make([]uint64, min(need*2, vmsim.MaxHeapBytes/hydra.WordSize))
		copy(grown, vm.Mem)
		vm.Mem = grown
	}
	vm.arrays[base] = n
	return base, nil
}

// BindGlobalInts allocates and fills an int global array.
func (vm *VM) BindGlobalInts(name string, vals []int64) error {
	gi, ok := vm.Prog.GlobIndex[name]
	if !ok {
		return fmt.Errorf("vmsim: no global %q", name)
	}
	base, err := vm.Alloc(int64(len(vals)))
	if err != nil {
		return err
	}
	for i, v := range vals {
		vm.Mem[int(base/hydra.WordSize)+i] = uint64(v)
	}
	vm.globals[gi] = base
	return nil
}

// BindGlobalFloats allocates and fills a float global array.
func (vm *VM) BindGlobalFloats(name string, vals []float64) error {
	gi, ok := vm.Prog.GlobIndex[name]
	if !ok {
		return fmt.Errorf("vmsim: no global %q", name)
	}
	base, err := vm.Alloc(int64(len(vals)))
	if err != nil {
		return err
	}
	for i, v := range vals {
		vm.Mem[int(base/hydra.WordSize)+i] = math.Float64bits(v)
	}
	vm.globals[gi] = base
	return nil
}

// GlobalInts copies back the current contents of an int global array.
func (vm *VM) GlobalInts(name string) ([]int64, error) {
	gi, ok := vm.Prog.GlobIndex[name]
	if !ok {
		return nil, fmt.Errorf("vmsim: no global %q", name)
	}
	base := vm.globals[gi]
	n := vm.arrays[base]
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(vm.Mem[int(base/hydra.WordSize)+i])
	}
	return out, nil
}

// GlobalFloats copies back the current contents of a float global array.
func (vm *VM) GlobalFloats(name string) ([]float64, error) {
	gi, ok := vm.Prog.GlobIndex[name]
	if !ok {
		return nil, fmt.Errorf("vmsim: no global %q", name)
	}
	base := vm.globals[gi]
	n := vm.arrays[base]
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(vm.Mem[int(base/hydra.WordSize)+i])
	}
	return out, nil
}

// Interrupt requests that a running Run return vmsim.ErrInterrupted at
// its next check point. Safe to call from another goroutine.
func (vm *VM) Interrupt() { vm.interrupted.Store(true) }

// Run executes the named function (typically "main") with no arguments.
func (vm *VM) Run(name string) error {
	_, fi, ok := vm.Prog.Lookup(name)
	if !ok {
		return fmt.Errorf("vmsim: no function %q", name)
	}
	if vm.MaxSteps == 0 {
		vm.MaxSteps = 1 << 40
	}
	_, err := vm.call(fi, nil)
	return err
}

// emit delivers one event to every listener at once, as a batch of one:
// the oracle keeps no buffer, so its delivery order is trivially
// execution order.
func (vm *VM) emit(ev vmsim.Event) {
	vm.one[0] = ev
	for _, l := range vm.Listeners {
		l.ConsumeEvents(vm.one[:])
	}
}

func (vm *VM) fault(f *tir.Function, in *tir.Instr, format string, args ...any) error {
	return &vmsim.RuntimeError{Msg: fmt.Sprintf(format, args...), Func: f.Name, Line: in.Line}
}

func (vm *VM) call(fi int, args []uint64) (uint64, error) {
	f := vm.Prog.Funcs[fi]
	regs := make([]uint64, f.NumRegs)
	slots := make([]uint64, len(f.Locals))
	copy(slots, args)
	vm.frameSeq++
	frame := vm.frameSeq

	traced := len(vm.Listeners) > 0
	bi := 0
	for {
		b := &f.Blocks[bi]
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			vm.steps++
			if vm.steps > vm.MaxSteps {
				return 0, vmsim.ErrStepLimit
			}
			if vm.steps&interruptMask == 0 && vm.interrupted.Load() {
				return 0, vmsim.ErrInterrupted
			}
			now := vm.Cycles
			vm.Cycles++

			switch in.Op {
			case tir.OpNop:
			case tir.OpConstI:
				regs[in.Dst] = uint64(in.Imm)
			case tir.OpConstF:
				regs[in.Dst] = math.Float64bits(in.FImm)
			case tir.OpMov:
				regs[in.Dst] = regs[in.A]
			case tir.OpAdd:
				regs[in.Dst] = uint64(int64(regs[in.A]) + int64(regs[in.B]))
			case tir.OpSub:
				regs[in.Dst] = uint64(int64(regs[in.A]) - int64(regs[in.B]))
			case tir.OpMul:
				regs[in.Dst] = uint64(int64(regs[in.A]) * int64(regs[in.B]))
			case tir.OpDiv:
				d := int64(regs[in.B])
				if d == 0 {
					return 0, vm.fault(f, in, "integer division by zero")
				}
				regs[in.Dst] = uint64(int64(regs[in.A]) / d)
			case tir.OpMod:
				d := int64(regs[in.B])
				if d == 0 {
					return 0, vm.fault(f, in, "integer modulo by zero")
				}
				regs[in.Dst] = uint64(int64(regs[in.A]) % d)
			case tir.OpAnd:
				regs[in.Dst] = regs[in.A] & regs[in.B]
			case tir.OpOr:
				regs[in.Dst] = regs[in.A] | regs[in.B]
			case tir.OpXor:
				regs[in.Dst] = regs[in.A] ^ regs[in.B]
			case tir.OpShl:
				regs[in.Dst] = uint64(int64(regs[in.A]) << (regs[in.B] & 63))
			case tir.OpShr:
				regs[in.Dst] = uint64(int64(regs[in.A]) >> (regs[in.B] & 63))
			case tir.OpNeg:
				regs[in.Dst] = uint64(-int64(regs[in.A]))
			case tir.OpNot:
				if regs[in.A] == 0 {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
			case tir.OpFAdd:
				regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) + math.Float64frombits(regs[in.B]))
			case tir.OpFSub:
				regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) - math.Float64frombits(regs[in.B]))
			case tir.OpFMul:
				regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) * math.Float64frombits(regs[in.B]))
			case tir.OpFDiv:
				regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) / math.Float64frombits(regs[in.B]))
			case tir.OpFNeg:
				regs[in.Dst] = math.Float64bits(-math.Float64frombits(regs[in.A]))
			case tir.OpEq:
				regs[in.Dst] = b2u(regs[in.A] == regs[in.B])
			case tir.OpNe:
				regs[in.Dst] = b2u(regs[in.A] != regs[in.B])
			case tir.OpLt:
				regs[in.Dst] = b2u(int64(regs[in.A]) < int64(regs[in.B]))
			case tir.OpLe:
				regs[in.Dst] = b2u(int64(regs[in.A]) <= int64(regs[in.B]))
			case tir.OpGt:
				regs[in.Dst] = b2u(int64(regs[in.A]) > int64(regs[in.B]))
			case tir.OpGe:
				regs[in.Dst] = b2u(int64(regs[in.A]) >= int64(regs[in.B]))
			case tir.OpFEq:
				regs[in.Dst] = b2u(math.Float64frombits(regs[in.A]) == math.Float64frombits(regs[in.B]))
			case tir.OpFNe:
				regs[in.Dst] = b2u(math.Float64frombits(regs[in.A]) != math.Float64frombits(regs[in.B]))
			case tir.OpFLt:
				regs[in.Dst] = b2u(math.Float64frombits(regs[in.A]) < math.Float64frombits(regs[in.B]))
			case tir.OpFLe:
				regs[in.Dst] = b2u(math.Float64frombits(regs[in.A]) <= math.Float64frombits(regs[in.B]))
			case tir.OpFGt:
				regs[in.Dst] = b2u(math.Float64frombits(regs[in.A]) > math.Float64frombits(regs[in.B]))
			case tir.OpFGe:
				regs[in.Dst] = b2u(math.Float64frombits(regs[in.A]) >= math.Float64frombits(regs[in.B]))
			case tir.OpI2F:
				regs[in.Dst] = math.Float64bits(float64(int64(regs[in.A])))
			case tir.OpF2I:
				regs[in.Dst] = uint64(int64(math.Float64frombits(regs[in.A])))
			case tir.OpLdLoc:
				regs[in.Dst] = slots[in.Slot]
				vm.NLocalLoads++
			case tir.OpStLoc:
				slots[in.Slot] = regs[in.A]
				vm.NLocalStores++
			case tir.OpLdGlob:
				regs[in.Dst] = uint64(vm.globals[in.Imm])
			case tir.OpLoad:
				addr := uint32(regs[in.A])
				w := addr / hydra.WordSize
				if addr%hydra.WordSize != 0 || int(w) >= len(vm.Mem) || addr >= vm.heapTop {
					return 0, vm.fault(f, in, "bad load address 0x%x", addr)
				}
				regs[in.Dst] = vm.Mem[w]
				vm.NHeapLoads++
				if traced {
					vm.emit(vmsim.Event{Kind: vmsim.EvHeapLoad, Now: now, Addr: addr, PC: int32(in.PC)})
				}
			case tir.OpStore:
				addr := uint32(regs[in.A])
				w := addr / hydra.WordSize
				if addr%hydra.WordSize != 0 || int(w) >= len(vm.Mem) || addr >= vm.heapTop {
					return 0, vm.fault(f, in, "bad store address 0x%x", addr)
				}
				vm.Mem[w] = regs[in.B]
				vm.NHeapStores++
				if traced {
					vm.emit(vmsim.Event{Kind: vmsim.EvHeapStore, Now: now, Addr: addr, PC: int32(in.PC)})
				}
			case tir.OpArrLen:
				base := uint32(regs[in.A])
				n, ok := vm.arrays[base]
				if !ok {
					return 0, vm.fault(f, in, "len of non-array address 0x%x", base)
				}
				regs[in.Dst] = uint64(n)
			case tir.OpNewArr:
				base, err := vm.Alloc(int64(regs[in.A]))
				if err != nil {
					return 0, vm.fault(f, in, "%v", err)
				}
				regs[in.Dst] = uint64(base)
			case tir.OpBr:
				bi = b.Targets[0]
				if b.Trampoline {
					vm.NTrampolines++
				}
			case tir.OpBrIf:
				if regs[in.A] != 0 {
					bi = b.Targets[0]
				} else {
					bi = b.Targets[1]
				}
			case tir.OpRet:
				if in.HasVal {
					return regs[in.A], nil
				}
				return 0, nil
			case tir.OpCall:
				callArgs := make([]uint64, len(in.Args))
				for i, a := range in.Args {
					callArgs[i] = regs[a]
				}
				// Unthrottled interrupt poll at call boundaries, mirroring
				// the fast engine: without it a straight-line, call-heavy
				// program only notices Interrupt at the masked check.
				if vm.interrupted.Load() {
					return 0, vmsim.ErrInterrupted
				}
				if vm.depth >= vmsim.MaxCallDepth {
					return 0, vm.fault(f, in, "call depth exceeds %d", vmsim.MaxCallDepth)
				}
				if traced {
					vm.emit(vmsim.Event{Kind: vmsim.EvCallEnter, Now: now, Loop: int32(in.Func), PC: int32(in.PC), Frame: frame})
				}
				vm.depth++
				v, err := vm.call(in.Func, callArgs)
				vm.depth--
				if err != nil {
					return 0, err
				}
				if in.Dst != tir.NoReg {
					regs[in.Dst] = v
				}
				if traced {
					vm.emit(vmsim.Event{Kind: vmsim.EvCallExit, Now: vm.Cycles, Loop: int32(in.Func), PC: int32(in.PC), Frame: frame})
				}
			case tir.OpPrint:
				if in.IsF {
					fmt.Fprintf(vm.Out, "%g\n", math.Float64frombits(regs[in.A]))
				} else {
					fmt.Fprintf(vm.Out, "%d\n", int64(regs[in.A]))
				}
			case tir.OpSLoop:
				vm.Cycles += vm.AnnotCost - 1
				vm.NLoopAnnot++
				if traced {
					vm.emit(vmsim.Event{Kind: vmsim.EvLoopStart, Now: now, Loop: int32(in.Loop), NumLocals: int32(in.Imm), Frame: frame})
				}
			case tir.OpELoop:
				vm.Cycles += vm.AnnotCost - 1
				vm.NLoopAnnot++
				if traced {
					vm.emit(vmsim.Event{Kind: vmsim.EvLoopEnd, Now: now, Loop: int32(in.Loop)})
				}
			case tir.OpEOI:
				vm.Cycles += vm.AnnotCost - 1
				vm.NLoopAnnot++
				if traced {
					vm.emit(vmsim.Event{Kind: vmsim.EvLoopIter, Now: now, Loop: int32(in.Loop)})
				}
			case tir.OpLWL:
				vm.Cycles += vm.AnnotCost - 1
				vm.NLocalAnnot++
				if traced {
					vm.emit(vmsim.Event{Kind: vmsim.EvLocalLoad, Now: now, Frame: frame, Slot: int32(in.Slot), PC: int32(in.PC)})
				}
			case tir.OpSWL:
				vm.Cycles += vm.AnnotCost - 1
				vm.NLocalAnnot++
				if traced {
					vm.emit(vmsim.Event{Kind: vmsim.EvLocalStore, Now: now, Frame: frame, Slot: int32(in.Slot), PC: int32(in.PC)})
				}
			case tir.OpReadStats:
				vm.Cycles += vm.ReadStatsCost - 1
				vm.NReadStats++
				if traced {
					vm.emit(vmsim.Event{Kind: vmsim.EvReadStats, Now: now, Loop: int32(in.Loop)})
				}
			default:
				return 0, vm.fault(f, in, "unknown opcode %d", uint8(in.Op))
			}

			if tir.IsTerminator(in.Op) && in.Op != tir.OpRet {
				break
			}
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
