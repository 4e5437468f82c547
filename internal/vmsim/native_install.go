package vmsim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"jrpm/internal/tir"
	"jrpm/internal/vmsim/native"
)

// The native tier's attachment point. InstallNative compiles the
// requested loops with internal/vmsim/native and swaps the VM's decoded
// stream for a patched clone whose loop-header block starts are
// dNativeEnter instructions. The shared Predecode image is never
// mutated: each (program, loop set, costs) triple gets its own clone,
// memoized like the decode cache.
//
// Entry protocol (see native.Loop.Run): the dispatch prologue that
// fetched dNativeEnter has already paid one step, one cycle, and the
// interrupt poll for the header's first micro-op — native treats it as
// prepaid. When the entry precheck fails (a step limit or poll boundary
// lands inside the header block), the prologue is undone and ip jumps to
// a relocated copy of the original header instruction appended at the
// end of the stream, so that instruction executes interpretively with
// per-micro-op accounting; this is what makes limits and interrupts land
// on the identical instruction as the other two tiers. The repaid
// prologue cannot double-fire the sampler: if the first poll ticked, the
// remaining header micro-ops fit the window and the precheck passes.

// NativeLoopStats is the per-loop execution record of the native tier.
type NativeLoopStats struct {
	Loop   int  // loop ID
	Fused  bool // whole-iteration fused path compiled
	Enters int64
	Deopts int64 // entry prechecks failed + mid-region window/stub exits
	Steps  int64 // micro-ops executed natively
}

type nativeLoopRef struct {
	loop *native.Loop
	fi   int
}

type nativeBuild struct {
	code  *Code
	plan  *native.Plan
	loops []nativeLoopRef // indexed by dNativeEnter's x0
}

type nativeKey struct {
	prog          *tir.Program
	annotCost     int64
	readStatsCost int64
	loops         string
}

var (
	nativeCacheMu sync.Mutex
	nativeCache   = map[nativeKey]*nativeBuild{}
)

const nativeCacheCap = 64

// InstallNative compiles the given loops to the native tier and attaches
// them to this VM. Must be called before Run, and the VM's annotation
// costs must not change afterwards (they are baked into the compiled
// code). Returns how many loops actually compiled; the rest stay on the
// predecoded interpreter with reasons in NativeRejected.
func (vm *VM) InstallNative(loopIDs ...int) (int, error) {
	if vm.steps != 0 {
		return 0, fmt.Errorf("vmsim: InstallNative after Run")
	}
	ids := append([]int(nil), loopIDs...)
	sort.Ints(ids)
	dedup := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			dedup = append(dedup, id)
		}
	}
	nb := getNativeBuild(vm.Prog, dedup, vm.AnnotCost, vm.ReadStatsCost)
	vm.native = nb
	if len(nb.loops) > 0 {
		vm.code = nb.code
	}
	vm.nativeStats = make([]NativeLoopStats, len(nb.loops))
	for i, r := range nb.loops {
		vm.nativeStats[i].Loop = int(r.loop.ID)
		vm.nativeStats[i].Fused = r.loop.Fused()
	}
	return len(nb.loops), nil
}

// InstallNativeAll compiles every discovered loop — the differential
// harness's configuration, and a reasonable default when no profile is
// available to say which loops are hot.
func (vm *VM) InstallNativeAll() (int, error) {
	ids := make([]int, 0, len(vm.Prog.Loops))
	for i := range vm.Prog.Loops {
		ids = append(ids, vm.Prog.Loops[i].ID)
	}
	return vm.InstallNative(ids...)
}

// NativeStats returns per-loop native execution stats (nil when the
// native tier is not installed). The slice is a copy.
func (vm *VM) NativeStats() []NativeLoopStats {
	if vm.nativeStats == nil {
		return nil
	}
	return append([]NativeLoopStats(nil), vm.nativeStats...)
}

// NativeRejected returns the compile-rejection reasons by loop ID (empty
// when everything requested compiled).
func (vm *VM) NativeRejected() map[int]string {
	if vm.native == nil {
		return nil
	}
	out := make(map[int]string, len(vm.native.plan.Rejected))
	for id, why := range vm.native.plan.Rejected {
		out[id] = why
	}
	return out
}

func getNativeBuild(prog *tir.Program, ids []int, annotCost, readStatsCost int64) *nativeBuild {
	var sb strings.Builder
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(id))
	}
	key := nativeKey{prog: prog, annotCost: annotCost, readStatsCost: readStatsCost, loops: sb.String()}

	nativeCacheMu.Lock()
	if nb, ok := nativeCache[key]; ok {
		nativeCacheMu.Unlock()
		return nb
	}
	nativeCacheMu.Unlock()

	nb := buildNative(prog, ids, annotCost, readStatsCost)

	nativeCacheMu.Lock()
	if prev, ok := nativeCache[key]; ok {
		nativeCacheMu.Unlock()
		return prev
	}
	if len(nativeCache) >= nativeCacheCap {
		for k := range nativeCache {
			delete(nativeCache, k)
			break
		}
	}
	nativeCache[key] = nb
	nativeCacheMu.Unlock()
	return nb
}

func buildNative(prog *tir.Program, ids []int, annotCost, readStatsCost int64) *nativeBuild {
	plan := native.CompilePlan(prog, ids, native.Config{AnnotCost: annotCost, ReadStatsCost: readStatsCost})
	base := Predecode(prog)

	code := &Code{prog: prog, funcs: make([]dfunc, len(base.funcs))}
	copy(code.funcs, base.funcs)
	cloned := make(map[int]int) // func index -> original instr count
	nb := &nativeBuild{code: code, plan: plan}

	for _, l := range plan.Loops {
		df := &code.funcs[l.Func]
		origLen, ok := cloned[l.Func]
		if !ok {
			origLen = len(df.instrs)
			instrs := make([]dinstr, origLen, origLen+8*len(plan.Loops))
			copy(instrs, df.instrs)
			df.instrs = instrs
			cloned[l.Func] = origLen
		}
		h := df.blockStart[l.Header]
		if df.instrs[h].op == dNativeEnter {
			// Two compiled loops sharing a header block: first one wins.
			plan.Rejected[int(l.ID)] = "header block already claimed by another native loop"
			continue
		}
		// Relocate the whole header block to the end of the stream. The
		// entry-deopt path jumps there so the block runs interpretively
		// with unmodified per-micro-op accounting: the copy is
		// instruction-for-instruction identical (including any fused
		// superinstructions), ends with the block's own terminator, and
		// costs nothing extra, so limits, interrupts and sampler ticks
		// land exactly where the unpatched stream puts them.
		end := int32(origLen)
		if l.Header+1 < len(df.blockStart) {
			end = df.blockStart[l.Header+1]
		}
		copyIdx := int32(len(df.instrs))
		df.instrs = append(df.instrs, df.instrs[h:end]...)
		orig := df.instrs[h]
		df.instrs[h] = dinstr{
			op: dNativeEnter,
			x0: int32(len(nb.loops)),
			t0: copyIdx,
			pc: orig.pc, line: orig.line,
		}
		nb.loops = append(nb.loops, nativeLoopRef{loop: l, fi: l.Func})
	}
	return nb
}

// buildGlobLen refreshes the per-run global array-length cache the
// compiled `len(a)` guards read: index-aligned with vm.globals, -1 when
// the global's base is not an allocated array. Globals are bound before
// Run and arrays are never freed, so this is stable for the whole run.
func buildGlobLen(globals []uint32, arrays map[uint32]int64, buf []int64) []int64 {
	if cap(buf) < len(globals) {
		buf = make([]int64, len(globals))
	}
	buf = buf[:len(globals)]
	for i, base := range globals {
		if n, ok := arrays[base]; ok {
			buf[i] = n
		} else {
			buf[i] = -1
		}
	}
	return buf
}

// Native code emits straight into the batch emitter.
var _ native.Emitter = (*batchEmitter)(nil)

// nativeProf keeps the sampling profiler's loop stack in sync while
// native code crosses SLoop/ELoop annotations.
type nativeProf struct{ s *Sampler }

func (np nativeProf) Push(loop int32) { np.s.push(loop) }
func (np nativeProf) Pop(loop int32)  { np.s.pop(loop) }
