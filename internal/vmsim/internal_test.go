package vmsim

import (
	"reflect"
	"testing"

	"jrpm/internal/hydra"
	"jrpm/internal/lang"
	"jrpm/internal/tir"
)

// TestBindInputsSortedOrder pins BindInputs' allocation order: ints
// before floats, each in sorted name order, whatever order the maps
// iterate in. Heap addresses are assigned at bind time, so this order is
// what makes the address stream of a run reproducible.
func TestBindInputsSortedOrder(t *testing.T) {
	prog, err := lang.Compile(`
global b: int[];
global a: int[];
global g: float[];
global f: float[];
func main() {
	a[0] = a[0] + b[0];
	f[0] = f[0] * 2.0 + g[1];
}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(map[string]int{"c": 1, "a": 2, "b": 3}); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("sortedKeys = %v", got)
	}

	vm := New(prog)
	ints := map[string][]int64{"b": {5}, "a": {37}}
	floats := map[string][]float64{"g": {0, 0.25}, "f": {1.5}}
	if err := vm.BindInputs(ints, floats); err != nil {
		t.Fatal(err)
	}
	base := func(name string) uint32 { return vm.globals[prog.GlobIndex[name]] }
	order := []string{"a", "b", "f", "g"}
	for i := 1; i < len(order); i++ {
		if base(order[i-1]) >= base(order[i]) {
			t.Fatalf("%s bound at %#x, not before %s at %#x; want order %v",
				order[i-1], base(order[i-1]), order[i], base(order[i]), order)
		}
	}
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	if got, err := vm.GlobalInts("a"); err != nil || got[0] != 42 {
		t.Fatalf("GlobalInts(a) = %v, %v; want [42]", got, err)
	}
	got, err := vm.GlobalFloats("f")
	if err != nil || !reflect.DeepEqual(got, []float64{3.25}) {
		t.Fatalf("GlobalFloats(f) = %v, %v; want [3.25]", got, err)
	}
	if _, err := vm.GlobalFloats("nope"); err == nil {
		t.Fatal("reading an unknown float global should fail")
	}

	// A bad name in either map fails the whole bind.
	if err := New(prog).BindInputs(map[string][]int64{"nope": {1}}, nil); err == nil {
		t.Fatal("binding an unknown int global should fail")
	}
	if err := New(prog).BindInputs(nil, map[string][]float64{"nope": {1}}); err == nil {
		t.Fatal("binding an unknown float global should fail")
	}
}

// TestBindInputsSizesMemOnce: BindInputs allocates the heap once, at
// exactly the words its line-rounded arrays need, instead of doubling
// it per bound array; an array the program allocates later still grows
// it.
func TestBindInputsSizesMemOnce(t *testing.T) {
	prog, err := lang.Compile(`
global a: int[];
global b: int[];
global f: float[];
func main() {
	a[0] = b[0];
}`)
	if err != nil {
		t.Fatal(err)
	}
	vm := New(prog)
	ints := map[string][]int64{"a": make([]int64, 100), "b": make([]int64, 3)}
	floats := map[string][]float64{"f": make([]float64, 17)}
	if err := vm.BindInputs(ints, floats); err != nil {
		t.Fatal(err)
	}
	if want := int(vm.heapTop / hydra.WordSize); len(vm.Mem) != want || cap(vm.Mem) != want {
		t.Fatalf("Mem len %d cap %d after BindInputs, want exactly %d words", len(vm.Mem), cap(vm.Mem), want)
	}
	if _, err := vm.Alloc(1); err != nil {
		t.Fatal(err)
	}
	if need := int(vm.heapTop / hydra.WordSize); len(vm.Mem) < need {
		t.Fatalf("Mem len %d after Alloc, want at least %d", len(vm.Mem), need)
	}
}

// TestSampleProfileReadOut covers the per-loop read-out API over a
// profile whose loops are already sorted hottest first, as Profile
// leaves them.
func TestSampleProfileReadOut(t *testing.T) {
	p := &SampleProfile{
		Samples: 100,
		Loops: []LoopSamples{
			{Loop: 3, Flat: 50, Cum: 80},
			{Loop: 1, Flat: 30, Cum: 30},
			{Loop: 7, Flat: 15, Cum: 15},
			{Loop: 2, Flat: 5, Cum: 5},
		},
	}
	if ls, ok := p.Loop(1); !ok || ls.Flat != 30 || ls.Cum != 30 {
		t.Fatalf("Loop(1) = %+v, %v", ls, ok)
	}
	if _, ok := p.Loop(9); ok {
		t.Fatal("Loop(9) found a loop that took no samples")
	}
	for _, tc := range []struct {
		share float64
		want  []int
	}{
		{0, []int{}},
		{0.5, []int{3}},
		{0.8, []int{3, 1}},
		{0.81, []int{3, 1, 7}},
		{1, []int{3, 1, 7, 2}},
	} {
		if got := p.HotLoops(tc.share); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("HotLoops(%v) = %v, want %v", tc.share, got, tc.want)
		}
	}
	if got := (&SampleProfile{}).HotLoops(1); got != nil {
		t.Fatalf("HotLoops on an empty profile = %v, want nil", got)
	}
}

// TestSamplerTruncate: truncate drops loop-stack entries above base and
// leaves a stack already at or below base alone.
func TestSamplerTruncate(t *testing.T) {
	s := NewSampler(1)
	for _, id := range []int32{4, 5, 6} {
		s.push(id)
	}
	s.truncate(5)
	if !reflect.DeepEqual(s.stack, []int32{4, 5, 6}) {
		t.Fatalf("truncate above the depth changed the stack: %v", s.stack)
	}
	s.truncate(1)
	if !reflect.DeepEqual(s.stack, []int32{4}) {
		t.Fatalf("after truncate(1): %v", s.stack)
	}
	s.pop(4)
	if len(s.stack) != 0 {
		t.Fatalf("after pop: %v", s.stack)
	}
}

// TestCmpDop pins the integer-compare mapping the fused
// compare-against-length header uses, and that anything else refuses
// to fuse.
func TestCmpDop(t *testing.T) {
	for op, want := range map[tir.Op]dop{
		tir.OpEq: dEq, tir.OpNe: dNe,
		tir.OpLt: dLt, tir.OpLe: dLe,
		tir.OpGt: dGt, tir.OpGe: dGe,
		tir.OpAdd: dNop, tir.OpFLt: dNop,
	} {
		if got := cmpDop(op); got != want {
			t.Errorf("cmpDop(%v) = %v, want %v", op, got, want)
		}
	}
}
