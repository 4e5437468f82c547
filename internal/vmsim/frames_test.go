package vmsim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"jrpm/internal/lang"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
	"jrpm/internal/vmsim/refvm"
)

// runawaySrc recurses without a base case. Without a call-depth bound
// it would grow the interpreter's stacks until the process dies.
const runawaySrc = `func f(x: int): int { return f(x + 1); } func main() { print(f(0)); }`

// depthSrc recurses depth(n) n calls deep below main's call, keeping a
// parameter and a local live across every recursive call so a frame
// stack that moves while they are live is noticed.
func depthSrc(n int) string {
	return fmt.Sprintf(`
func depth(n: int, acc: int): int {
	var keep: int = n * 3 + acc;
	if (n == 0) { return acc; }
	var r: int = depth(n - 1, acc + 1);
	return r + keep - n * 3 - acc;
}
func main() { print(depth(%d, 0)); }`, n)
}

// runBoth runs src on both engines and returns their errors, outputs
// and cycle counts.
func runBoth(t *testing.T, src string) (fastErr, refErr error, fastOut, refOut string, fastCycles, refCycles int64) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var fb, rb bytes.Buffer
	fvm := vmsim.New(prog)
	fvm.Out = &fb
	fastErr = fvm.Run("main")
	rvm := refvm.New(prog)
	rvm.Out = &rb
	refErr = rvm.Run("main")
	return fastErr, refErr, fb.String(), rb.String(), fvm.Cycles, rvm.Cycles
}

// TestCallDepthBound: unbounded recursion fails with the same
// RuntimeError on both engines, at the call that would exceed
// MaxCallDepth, and a recursion exactly MaxCallDepth calls deep still
// completes with the right result.
func TestCallDepthBound(t *testing.T) {
	want := &vmsim.RuntimeError{
		Msg:  fmt.Sprintf("call depth exceeds %d", vmsim.MaxCallDepth),
		Func: "f",
		Line: 1,
	}
	fErr, rErr, _, _, fc, rc := runBoth(t, runawaySrc)
	if !reflect.DeepEqual(fErr, want) {
		t.Errorf("fast engine: err = %#v, want %#v", fErr, want)
	}
	if !reflect.DeepEqual(rErr, want) {
		t.Errorf("reference engine: err = %#v, want %#v", rErr, want)
	}
	if fc != rc {
		t.Errorf("cycles at the fault: fast %d, ref %d", fc, rc)
	}

	// main's call plus MaxCallDepth-1 recursive calls: exactly at the bound.
	fErr, rErr, fOut, rOut, fc, rc := runBoth(t, depthSrc(vmsim.MaxCallDepth-1))
	if fErr != nil || rErr != nil {
		t.Fatalf("recursion at the bound failed: fast %v, ref %v", fErr, rErr)
	}
	if wantOut := fmt.Sprintf("%d\n", vmsim.MaxCallDepth-1); fOut != wantOut || rOut != wantOut || fc != rc {
		t.Errorf("recursion at the bound: fast %q in %d cycles, ref %q in %d cycles, want %q",
			fOut, fc, rOut, rc, wantOut)
	}
	fErr, rErr, _, _, _, _ = runBoth(t, depthSrc(vmsim.MaxCallDepth))
	want.Func, want.Line = "depth", 5
	if !reflect.DeepEqual(fErr, want) || !reflect.DeepEqual(rErr, want) {
		t.Errorf("one call past the bound: fast %v, ref %v, want %v", fErr, rErr, want)
	}
}

// TestCalleeFrameStartsZeroed: a frame's window reuses stack words an
// earlier, returned call wrote, so the callee must clear it. JR source
// always writes a local or register before reading it, so the program
// is built by hand: fill leaves 77 in its slot and a register, then peek
// reads its own slot and register unwritten, which must hold zero on
// both engines, as in a freshly allocated frame.
func TestCalleeFrameStartsZeroed(t *testing.T) {
	fill := &tir.Function{Name: "fill", Locals: make([]tir.Local, 1), NumRegs: 2, Blocks: []tir.Block{{Instrs: []tir.Instr{
		{Op: tir.OpConstI, Dst: 0, Imm: 77},
		{Op: tir.OpStLoc, A: 0, Slot: 0},
		{Op: tir.OpMov, Dst: 1, A: 0},
		{Op: tir.OpRet},
	}}}}
	peek := &tir.Function{Name: "peek", Locals: make([]tir.Local, 1), NumRegs: 2, HasRes: true, Blocks: []tir.Block{{Instrs: []tir.Instr{
		{Op: tir.OpLdLoc, Dst: 0, Slot: 0},
		{Op: tir.OpAdd, Dst: 1, A: 0, B: 1},
		{Op: tir.OpRet, A: 1, HasVal: true},
	}}}}
	main := &tir.Function{Name: "main", NumRegs: 1, Blocks: []tir.Block{{Instrs: []tir.Instr{
		{Op: tir.OpCall, Dst: tir.NoReg, Func: 1},
		{Op: tir.OpCall, Dst: 0, Func: 2},
		{Op: tir.OpPrint, A: 0},
		{Op: tir.OpRet},
	}}}}
	prog := &tir.Program{
		Funcs:     []*tir.Function{main, fill, peek},
		FuncIndex: map[string]int{"main": 0, "fill": 1, "peek": 2},
	}
	prog.AssignPCs()

	var fb, rb bytes.Buffer
	fvm := vmsim.New(prog)
	fvm.Out = &fb
	rvm := refvm.New(prog)
	rvm.Out = &rb
	if err := fvm.Run("main"); err != nil {
		t.Fatal(err)
	}
	if err := rvm.Run("main"); err != nil {
		t.Fatal(err)
	}
	if fb.String() != "0\n" || rb.String() != "0\n" {
		t.Errorf("peek read fast %q, ref %q; want 0 from a zeroed frame", fb.String(), rb.String())
	}
}

// callsSrc makes n calls from a loop, each passing two arguments. It
// prints nothing: fmt's printer pool would add allocations of its own.
func callsSrc(n int) string {
	return fmt.Sprintf(`
func leaf(x: int, y: int): int { var z: int = x + y; return z; }
func main() {
	var s: int = 0;
	for (var i: int = 0; i < %d; i++) { s = leaf(s, i); }
}`, n)
}

type discard struct{}

func (discard) ConsumeEvents([]vmsim.Event) {}

// TestExecAllocsIndependentOfCalls: frames live on the VM's one frame
// stack, so a run allocates nothing per call: a program making twice
// the calls allocates exactly as much, traced or not.
func TestExecAllocsIndependentOfCalls(t *testing.T) {
	allocs := func(n int, traced bool) float64 {
		prog, err := lang.Compile(callsSrc(n))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			vm := vmsim.New(prog)
			if traced {
				vm.Listeners = []vmsim.Listener{discard{}}
			}
			if err := vm.Run("main"); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, traced := range []bool{false, true} {
		base, twice := allocs(2000, traced), allocs(4000, traced)
		if twice != base {
			t.Errorf("traced=%v: 2000 calls made %.0f allocations, 4000 calls %.0f; want no change",
				traced, base, twice)
		}
	}
}
