package vmsim_test

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"jrpm/internal/annotate"
	"jrpm/internal/lang"
	"jrpm/internal/vmsim"
)

func compileRun(t *testing.T, src string, ints map[string][]int64) *vmsim.VM {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	vm := vmsim.New(prog)
	for name, vals := range ints {
		if err := vm.BindGlobalInts(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	return vm
}

// TestIntSemanticsMatchGo: random arithmetic expressions evaluated in the
// VM agree with Go's int64 semantics.
func TestIntSemanticsMatchGo(t *testing.T) {
	src := `
global in: int[];
global out: int[];
func main() {
	var a: int = in[0];
	var b: int = in[1];
	out[0] = a + b;
	out[1] = a - b;
	out[2] = a * b;
	out[3] = a & b;
	out[4] = a | b;
	out[5] = a ^ b;
	out[6] = a << 3;
	out[7] = a >> 2;
	out[8] = -a;
	var c: int = 0;
	if (a < b) { c = 1; }
	out[9] = c;
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b int32) bool {
		vm := vmsim.New(prog)
		if err := vm.BindGlobalInts("in", []int64{int64(a), int64(b)}); err != nil {
			return false
		}
		if err := vm.BindGlobalInts("out", make([]int64, 10)); err != nil {
			return false
		}
		if err := vm.Run("main"); err != nil {
			return false
		}
		out, _ := vm.GlobalInts("out")
		A, B := int64(a), int64(b)
		want := []int64{A + B, A - B, A * B, A & B, A | B, A ^ B, A << 3, A >> 2, -A, 0}
		if A < B {
			want[9] = 1
		}
		for i := range want {
			if out[i] != want[i] {
				t.Logf("a=%d b=%d out[%d]=%d want %d", a, b, i, out[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFloatSemanticsMatchGo: float ops are IEEE double, same as Go.
func TestFloatSemanticsMatchGo(t *testing.T) {
	src := `
global fin: float[];
global fout: float[];
func main() {
	var a: float = fin[0];
	var b: float = fin[1];
	fout[0] = a + b;
	fout[1] = a - b;
	fout[2] = a * b;
	fout[3] = a / b;
	fout[4] = -a;
	fout[5] = float(int(a));
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float32) bool {
		if b == 0 || a > 1e18 || a < -1e18 {
			return true
		}
		A, B := float64(a), float64(b)
		vm := vmsim.New(prog)
		if err := vm.BindGlobalFloats("fin", []float64{A, B}); err != nil {
			return false
		}
		if err := vm.BindGlobalFloats("fout", make([]float64, 6)); err != nil {
			return false
		}
		if err := vm.Run("main"); err != nil {
			return false
		}
		out, _ := vm.GlobalFloats("fout")
		want := []float64{A + B, A - B, A * B, A / B, -A, float64(int64(A))}
		for i := range want {
			if out[i] != want[i] && !(out[i] != out[i] && want[i] != want[i]) { // NaN == NaN
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStepLimit aborts runaway programs.
func TestStepLimit(t *testing.T) {
	prog, err := lang.Compile(`func main() { while (true) { } }`)
	if err != nil {
		t.Fatal(err)
	}
	vm := vmsim.New(prog)
	vm.MaxSteps = 10_000
	if err := vm.Run("main"); err != vmsim.ErrStepLimit {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

// TestBadAddressFaults: wild pointers fault with position info.
func TestBadAddressFaults(t *testing.T) {
	prog, err := lang.Compile(`
global out: int[];
func main() {
	out[1000000] = 1;
}`)
	if err != nil {
		t.Fatal(err)
	}
	vm := vmsim.New(prog)
	if err := vm.BindGlobalInts("out", []int64{0}); err != nil {
		t.Fatal(err)
	}
	err = vm.Run("main")
	re, ok := err.(*vmsim.RuntimeError)
	if !ok {
		t.Fatalf("err = %v, want RuntimeError", err)
	}
	if re.Func != "main" || !strings.Contains(re.Error(), "store address") {
		t.Fatalf("fault = %v", re)
	}
}

// TestPrintOutput: print writes to the configured writer.
func TestPrintOutput(t *testing.T) {
	prog, err := lang.Compile(`func main() { print(42); print(2.5); }`)
	if err != nil {
		t.Fatal(err)
	}
	vm := vmsim.New(prog)
	var buf bytes.Buffer
	vm.Out = &buf
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "42\n2.5\n" {
		t.Fatalf("output = %q", got)
	}
}

// TestEventSize pins the batch element at 40 bytes: call events reuse
// existing fields rather than widening every event in every batch.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(vmsim.Event{}); n != 40 {
		t.Fatalf("unsafe.Sizeof(vmsim.Event{}) = %d, want 40", n)
	}
}

// eventLog records the raw event stream for inspection.
type eventLog struct {
	events []string
	times  []int64
}

var eventNames = [...]string{
	vmsim.EvHeapLoad: "L", vmsim.EvHeapStore: "S",
	vmsim.EvLocalLoad: "ll", vmsim.EvLocalStore: "ls",
	vmsim.EvLoopStart: "sloop", vmsim.EvLoopIter: "eoi", vmsim.EvLoopEnd: "eloop",
	vmsim.EvReadStats: "read", vmsim.EvCallEnter: "call", vmsim.EvCallExit: "ret",
}

func (l *eventLog) ConsumeEvents(evs []vmsim.Event) {
	for _, ev := range evs {
		l.events = append(l.events, eventNames[ev.Kind])
		l.times = append(l.times, ev.Now)
	}
}

// TestEventStreamOrdering: timestamps are monotone and loop events nest.
func TestEventStreamOrdering(t *testing.T) {
	src := `
global a: int[];
func main() {
	var i: int = 0;
	while (i < 3) {
		a[i] = a[i] + 1;
		i++;
	}
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := annotate.Apply(prog, annotate.Optimized()); err != nil {
		t.Fatal(err)
	}
	vm := vmsim.New(prog)
	log := &eventLog{}
	vm.Listeners = append(vm.Listeners, log)
	if err := vm.BindGlobalInts("a", make([]int64, 8)); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(log.times); i++ {
		if log.times[i] < log.times[i-1] {
			t.Fatalf("timestamps not monotone at %d: %v", i, log.times)
		}
	}
	joined := strings.Join(log.events, " ")
	if !strings.HasPrefix(joined, "sloop") {
		t.Fatalf("stream does not open with sloop: %s", joined)
	}
	if n := strings.Count(joined, "eoi"); n != 3 {
		t.Fatalf("eoi count = %d, want 3 (one per back edge)", n)
	}
	if !strings.Contains(joined, "eloop") {
		t.Fatalf("no eloop in %s", joined)
	}
	// 3 loads + 3 stores of a[i].
	if n := strings.Count(joined, "L"); n != 3 {
		t.Fatalf("heap loads = %d, want 3", n)
	}
}

// TestAnnotationCostsCharged: readstats costs more than one cycle.
func TestAnnotationCostsCharged(t *testing.T) {
	src := `
global a: int[];
func main() {
	var i: int = 0;
	while (i < 10) { a[0] = a[0] + 1; i++; }
}`
	progClean, _ := lang.Compile(src)
	if _, err := annotate.Apply(progClean, annotate.Options{}); err != nil {
		t.Fatal(err)
	}
	progAnn, _ := lang.Compile(src)
	if _, err := annotate.Apply(progAnn, annotate.Base()); err != nil {
		t.Fatal(err)
	}
	vmC := vmsim.New(progClean)
	vmA := vmsim.New(progAnn)
	for _, vm := range []*vmsim.VM{vmC, vmA} {
		if err := vm.BindGlobalInts("a", []int64{0}); err != nil {
			t.Fatal(err)
		}
		if err := vm.Run("main"); err != nil {
			t.Fatal(err)
		}
	}
	if vmA.Cycles <= vmC.Cycles {
		t.Fatalf("annotated run (%d) not slower than clean (%d)", vmA.Cycles, vmC.Cycles)
	}
	if vmA.NReadStats == 0 || vmA.NLoopAnnot == 0 {
		t.Fatalf("annotation counters not incremented: %d/%d", vmA.NReadStats, vmA.NLoopAnnot)
	}
}

// TestGlobalRoundTrip: binding and reading back globals preserves values.
func TestGlobalRoundTrip(t *testing.T) {
	vm := compileRun(t, `
global a: int[];
func main() { a[0] = a[0] + 1; }`, map[string][]int64{"a": {41, -7}})
	got, err := vm.GlobalInts("a")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 || got[1] != -7 {
		t.Fatalf("round trip = %v", got)
	}
	if _, err := vm.GlobalInts("nope"); err == nil {
		t.Fatal("reading unknown global should fail")
	}
}
