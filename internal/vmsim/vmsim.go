// Package vmsim executes TIR programs sequentially with a deterministic
// cycle model (one instruction per cycle, as on Hydra's single-issue MIPS
// cores) and publishes the event stream that the TEST tracer consumes:
// heap loads/stores are communicated automatically while tracing is
// enabled, and the annotating instructions (Table 4) produce the local
// variable and loop boundary events.
//
// The package contains two engines with identical observable behaviour:
//
//   - the fast engine (decode.go, exec.go, emit.go) interprets a
//     pre-decoded instruction stream with batched, devirtualized event
//     emission — this is what VM.Run executes;
//   - the reference oracle in internal/vmsim/refvm keeps the original
//     block-at-a-time interpreter, always compiled, as the semantic
//     ground truth.
//
// TestVMDifferential and FuzzVMDiff hold the two bit-identical — events,
// cycles, heap, output, counters and errors — across the workload suite,
// the example programs and a fuzz corpus.
package vmsim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"jrpm/internal/freelist"
	"jrpm/internal/hydra"
	"jrpm/internal/tir"
)

// SlotID identifies one named local variable instance: the variable's slot
// within a specific activation frame ("local variables in the same calling
// context as a potential STL").
type SlotID struct {
	Frame uint64
	Slot  int
}

// Listener is the one consumer contract for the trace event stream. Every
// producer — both engines and trace.Reader.Replay —
// delivers events in batches, in execution order, through ConsumeEvents;
// the listener must process them in order and must not retain evs after
// the call returns, because the producer reuses the buffer. The stream
// includes call boundaries (EvCallEnter, EvCallExit), which consumers
// that do not need them skip.
type Listener interface {
	ConsumeEvents(evs []Event)
}

// BatchConsumer is Listener under its earlier name.
type BatchConsumer = Listener

// ErrStepLimit is returned when execution exceeds VM.MaxSteps.
var ErrStepLimit = errors.New("vmsim: step limit exceeded")

// ErrInterrupted is returned when Interrupt stops a run early (job
// timeout or cancellation in the jrpmd service).
var ErrInterrupted = errors.New("vmsim: interrupted")

// interruptMask throttles the interrupt-flag poll to one atomic load per
// 8192 executed instructions, keeping the hot interpreter loop cheap.
// Call instructions additionally poll unthrottled, so call-heavy
// straight-line programs cancel promptly.
const (
	interruptShift = 13
	interruptMask  = 1<<interruptShift - 1
)

// MaxCallDepth bounds the nesting of calls below the entry function. A
// call that would exceed it faults with a RuntimeError at the call site
// instead of growing the interpreter's stacks without limit: unbounded
// recursion in a submitted program must fail its job, not the process.
const MaxCallDepth = 1 << 14

// RuntimeError is a positioned execution fault.
type RuntimeError struct {
	Msg  string
	Func string
	Line int
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error in %s (line %d): %s", e.Func, e.Line, e.Msg)
}

// VM is a sequential TIR interpreter.
type VM struct {
	Prog      *tir.Program
	Mem       []uint64 // one 64-bit value per 4-byte word slot
	Cycles    int64
	Listeners []Listener
	Out       io.Writer
	MaxSteps  int64 // 0 = default (2^40)

	// Costs for annotation instructions; zero values mean "use defaults
	// from hydra.DefaultConfig().Tracer".
	AnnotCost     int64
	ReadStatsCost int64

	code        *Code            // pre-decoded instruction stream
	arrays      map[uint32]int64 // base address -> element count
	globals     []uint32         // base address per global index
	heapTop     uint32
	frameSeq    uint64
	steps       int64
	interrupted atomic.Bool
	sampler     *Sampler

	// stack holds every live activation's frame window, slots then
	// registers, the callee's window starting where its caller's ends.
	// It grows by doubling and is reused by every call of the run.
	stack []uint64
	depth int // live calls below the entry function

	// heap is the buffer BindInputs carved Mem out of, which Release
	// hands to the next VM.
	heap *heapBuf

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

// New creates a VM for prog. The decoded instruction stream comes from
// the package-level cache, so constructing many VMs for one program —
// the service's per-job pattern — decodes it once.
func New(prog *tir.Program) *VM {
	t := hydra.DefaultConfig().Tracer
	return &VM{
		Prog:          prog,
		code:          Predecode(prog),
		arrays:        map[uint32]int64{},
		globals:       make([]uint32, len(prog.Globals)),
		heapTop:       hydra.LineSize, // keep address 0 unused
		AnnotCost:     t.AnnotCost,
		ReadStatsCost: t.ReadStatsCost,
		Out:           io.Discard,
	}
}

// MaxHeapBytes bounds a VM's heap, in the simulated machine's bytes (a
// 4-byte word per element; Mem holds 8 host bytes per word). An
// allocation that would take the heap past it faults, identically on
// both engines, before anything grows: a program's newint must fail its
// job, not exhaust the process's memory. The largest workload input at
// the service's largest scale (h263dec at 16) takes 28.5 MB of it.
const MaxHeapBytes = 1 << 27

// Alloc reserves a line-aligned array of n elements and returns its base
// address. The heap top is computed in 64 bits and checked against
// MaxHeapBytes first, so no size wraps around the 32-bit address space.
func (vm *VM) Alloc(n int64) (uint32, error) {
	if n < 0 {
		return 0, fmt.Errorf("vmsim: negative allocation %d", n)
	}
	if n > MaxHeapBytes || uint64(vm.heapTop)+lineBytes(n) > MaxHeapBytes {
		return 0, fmt.Errorf("vmsim: allocation of %d elements exceeds the %d-byte heap", n, MaxHeapBytes)
	}
	base := vm.heapTop
	vm.heapTop += uint32(lineBytes(n))
	need := int(vm.heapTop / hydra.WordSize)
	if need > len(vm.Mem) {
		grown := make([]uint64, min(need*2, MaxHeapBytes/hydra.WordSize))
		copy(grown, vm.Mem)
		vm.Mem = grown
	}
	vm.arrays[base] = n
	return base, nil
}

// lineBytes is the heap an array of n elements takes: rounded up to a
// fresh cache line so arrays never share lines (matches how a JVM heap
// would lay out largish arrays).
func lineBytes(n int64) uint64 {
	return (uint64(n)*hydra.WordSize + hydra.LineSize - 1) &^ (hydra.LineSize - 1)
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

// BindInputs binds every int, then every float global array, each set in
// sorted name order. Heap addresses are assigned at bind time, so
// map-iteration order would make the address stream — and anything
// derived from it, like buffer-line high-water marks or a recorded
// trace — differ from run to run.
//
// Mem is sized once for all the arrays, rather than doubled by Alloc as
// each is bound; Alloc still doubles it for arrays the program allocates.
// Inputs past MaxHeapBytes are not sized for: Alloc fails the array that
// crosses the bound.
func (vm *VM) BindInputs(ints map[string][]int64, floats map[string][]float64) error {
	top := uint64(vm.heapTop)
	for _, vals := range ints {
		top += lineBytes(int64(len(vals)))
	}
	for _, vals := range floats {
		top += lineBytes(int64(len(vals)))
	}
	if need := int(top / hydra.WordSize); top <= MaxHeapBytes && need > len(vm.Mem) {
		vm.growHeap(need)
	}
	for _, name := range sortedKeys(ints) {
		if err := vm.BindGlobalInts(name, ints[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(floats) {
		if err := vm.BindGlobalFloats(name, floats[name]); err != nil {
			return err
		}
	}
	return nil
}

// heapBuf is a VM heap kept between runs.
type heapBuf struct{ words []uint64 }

// heaps holds the heaps of released VMs.
var heaps freelist.List[heapBuf]

// heapKeepWords bounds the heap an idle heapBuf may keep (4 MiB); a
// larger one is left to the collector. A paper kernel at scale 1 binds
// at most about 0.2 MB of input.
const heapKeepWords = 1 << 19

// growHeap makes Mem exactly need words, its contents kept and the rest
// zero, in an idle heap when one is large enough. Mem's capacity is
// clipped to need, so Alloc grows it exactly as it grows a fresh one.
func (vm *VM) growHeap(need int) {
	hb := vm.heap
	if hb == nil {
		hb = heaps.Get()
	}
	if cap(hb.words) < need {
		hb.words = make([]uint64, need)
	}
	w := hb.words[:need:need]
	clear(w[copy(w, vm.Mem):])
	vm.Mem, vm.heap = w, hb
}

// Release hands the VM's heap to the next VM that binds inputs. Call it
// once nothing reads Mem any more; the VM must not run or bind again.
func (vm *VM) Release() {
	if hb := vm.heap; hb != nil && cap(hb.words) <= heapKeepWords {
		heaps.Put(hb)
	}
	vm.heap, vm.Mem = nil, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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

// Interrupt requests that a running Run return ErrInterrupted at its next
// check point (every few thousand instructions, and at every call). It is
// the only VM method safe to call from another goroutine; all other state
// is single-owner.
func (vm *VM) Interrupt() { vm.interrupted.Store(true) }

// SetSampler attaches a sampling profiler (nil detaches). The sampler
// piggybacks on the interrupt poll, so with none attached the dispatch
// loop pays nothing. Must be set before Run; the VM owns the sampler
// until Run returns.
func (vm *VM) SetSampler(s *Sampler) { vm.sampler = s }

// runCount counts VM.Run invocations process-wide: one atomic add per
// program execution, nothing per instruction. The record-once /
// replay-many guarantees of internal/trace are asserted against it —
// analyzing N configurations from one recorded trace must not move it.
var runCount atomic.Int64

// RunCount returns the total number of VM.Run invocations in this
// process.
func RunCount() int64 { return runCount.Load() }

// Run executes the named function (typically "main") with no arguments.
func (vm *VM) Run(name string) error {
	runCount.Add(1)
	_, fi, ok := vm.Prog.Lookup(name)
	if !ok {
		return fmt.Errorf("vmsim: no function %q", name)
	}
	if vm.MaxSteps == 0 {
		vm.MaxSteps = 1 << 40
	}
	em := newBatchEmitter(vm.Listeners)
	vm.reserve(vm.code.funcs[fi].frameSize)
	_, err := vm.exec(vm.code, fi, 0, 0, em)
	// Drain pending events even on error: the reference engine delivers
	// every event produced before the fault, so the fast engine must too.
	if em != nil {
		em.release()
	}
	return err
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
