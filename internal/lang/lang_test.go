package lang_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"jrpm/internal/lang"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// runInt compiles src, binds the given int globals, runs main, and returns
// the named result array.
func runInt(t *testing.T, src string, globals map[string][]int64, result string) []int64 {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm := vmsim.New(prog)
	for name, vals := range globals {
		if err := vm.BindGlobalInts(name, vals); err != nil {
			t.Fatalf("bind %s: %v", name, err)
		}
	}
	if err := vm.Run("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	out, err := vm.GlobalInts(result)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return out
}

func TestCompileAndRunSum(t *testing.T) {
	src := `
global in: int[];
global out: int[];
func main() {
	var s: int = 0;
	var i: int = 0;
	while (i < len(in)) {
		s = s + in[i];
		i++;
	}
	out[0] = s;
}`
	got := runInt(t, src, map[string][]int64{"in": {1, 2, 3, 4, 5}, "out": {0}}, "out")
	if got[0] != 15 {
		t.Fatalf("sum = %d, want 15", got[0])
	}
}

func TestCompileAndRunFib(t *testing.T) {
	src := `
global out: int[];
func fib(n: int): int {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
func main() {
	var i: int = 0;
	for (i = 0; i < len(out); i++) {
		out[i] = fib(i);
	}
}`
	got := runInt(t, src, map[string][]int64{"out": make([]int64, 10)}, "out")
	want := []int64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fib(%d) = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestDoWhileAndBreakContinue(t *testing.T) {
	src := `
global out: int[];
func main() {
	var i: int = 0;
	var n: int = 0;
	do {
		i++;
		if (i % 2 == 0) { continue; }
		if (i > 9) { break; }
		n += i;
	} while (i < 100);
	out[0] = n; // 1+3+5+7+9
	out[1] = i; // loop left via break at i == 11
}`
	got := runInt(t, src, map[string][]int64{"out": {0, 0}}, "out")
	if got[0] != 25 || got[1] != 11 {
		t.Fatalf("got %v, want [25 11]", got)
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
global out: int[];
func boom(): int {
	out[1] = 1; // side effect marker
	return 1;
}
func main() {
	var a: bool = false;
	if (a && boom() == 1) { out[0] = 7; }
	var b: bool = true;
	if (b || boom() == 1) { out[0] = out[0] + 3; }
}`
	got := runInt(t, src, map[string][]int64{"out": {0, 0}}, "out")
	if got[0] != 3 {
		t.Fatalf("out[0] = %d, want 3", got[0])
	}
	if got[1] != 0 {
		t.Fatalf("short-circuit failed: boom() was called")
	}
}

func TestFloatsAndCasts(t *testing.T) {
	src := `
global fout: float[];
func main() {
	var x: float = 1.5;
	var i: int = 0;
	while (i < len(fout)) {
		fout[i] = x * float(i) + 0.25;
		i++;
	}
	var y: int = int(3.9);
	fout[0] = fout[0] + float(y); // 0.25 + 3 = 3.25
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm := vmsim.New(prog)
	if err := vm.BindGlobalFloats("fout", make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, _ := vm.GlobalFloats("fout")
	want := []float64{3.25, 1.75, 3.25, 4.75}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fout[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestLocalArraysAndFunctions(t *testing.T) {
	src := `
global out: int[];
func fill(a: int[], v: int) {
	var i: int = 0;
	while (i < len(a)) { a[i] = v + i; i++; }
}
func sum(a: int[]): int {
	var s: int = 0;
	var i: int = 0;
	while (i < len(a)) { s += a[i]; i++; }
	return s;
}
func main() {
	var t: int[] = newint(10);
	fill(t, 100);
	out[0] = sum(t);
}`
	got := runInt(t, src, map[string][]int64{"out": {0}}, "out")
	if got[0] != 1045 {
		t.Fatalf("sum = %d, want 1045", got[0])
	}
}

func TestHexShiftBitwise(t *testing.T) {
	src := `
global out: int[];
func main() {
	out[0] = 0xff & 0x0f;
	out[1] = 1 << 10;
	out[2] = -16 >> 2;
	out[3] = 0x5 ^ 0x3;
	out[4] = 5 % 3;
}`
	got := runInt(t, src, map[string][]int64{"out": make([]int64, 5)}, "out")
	want := []int64{0x0f, 1024, -4, 6, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"func main( {}", "expected"},
		{"global g: int;", "must be an array"},
		{"func main() { var x: int = ; }", "expected expression"},
		{"func main() { x = 1; }", "undefined name x"},
		{"func main() { var x: int = 1.5; }", "cannot initialize"},
		{"func main() { break; }", "break outside loop"},
		{"func main() { if (1) {} }", "must be bool"},
		{"func f(): int { return; } func main() {}", "must return int"},
		{"func main() { var a: bool = 1 < 2.0; }", "matching"},
		{"func main() { var x: int = 0; var x: int = 0; }", "duplicate declaration"},
	}
	for _, c := range cases {
		_, err := lang.Compile(c.src)
		if err == nil {
			t.Errorf("compile(%q): expected error containing %q, got nil", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("compile(%q): error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestDivByZeroTraps(t *testing.T) {
	src := `
global out: int[];
func main() { out[0] = 1 / (len(out) - 1); }`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	vm := vmsim.New(prog)
	if err := vm.BindGlobalInts("out", []int64{0}); err != nil {
		t.Fatal(err)
	}
	err = vm.Run("main")
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("want division-by-zero error, got %v", err)
	}
}

func TestValidateGeneratedCode(t *testing.T) {
	src := `
global out: int[];
func main() {
	var i: int = 0;
	var j: int = 0;
	for (i = 0; i < 10; i++) {
		for (j = 0; j < 10; j++) {
			if (i == j) { continue; }
			out[0] = out[0] + 1;
			if (out[0] > 80) { break; }
		}
	}
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := tir.Validate(prog); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Disassembly should render without panicking and mention key ops.
	d := tir.DisasmProgram(prog)
	for _, want := range []string{"func main", "brif", "store", "ret"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestCyclesAreCounted(t *testing.T) {
	src := `
global out: int[];
func main() {
	var i: int = 0;
	while (i < 1000) { i++; }
	out[0] = i;
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	vm := vmsim.New(prog)
	if err := vm.BindGlobalInts("out", []int64{0}); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	// ~1000 iterations x a handful of instructions each.
	if vm.Cycles < 4000 || vm.Cycles > 20000 {
		t.Fatalf("cycles = %d, expected a few thousand", vm.Cycles)
	}
}

// TestGenPacksEachFunction: code generation builds each function in
// reused scratch and copies it out once at its final size. Every block's
// instructions, targets and call arguments are windows of one backing
// array per kind with no spare capacity, so appending to one block never
// writes into its neighbour; and compiling another program, which reuses
// the scratch, leaves the first program as it was.
func TestGenPacksEachFunction(t *testing.T) {
	const src = `
global a: int[];
func pick(x: int, y: int): int {
	if (x < y) { return x; }
	return y;
}
func main() {
	var i: int = 0;
	var s: int = 0;
	while (i < len(a)) {
		if (a[i] < 0) { break; }
		s = s + pick(a[i], i) + pick(pick(i, 3), s);
		i++;
	}
	print(s);
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	before := tir.DisasmProgram(prog)
	for _, f := range prog.Funcs {
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			if len(b.Instrs) != cap(b.Instrs) || len(b.Targets) != cap(b.Targets) {
				t.Errorf("%s b%d: %d instructions in capacity %d, %d targets in capacity %d",
					f.Name, bi, len(b.Instrs), cap(b.Instrs), len(b.Targets), cap(b.Targets))
			}
			for ii := range b.Instrs {
				if args := b.Instrs[ii].Args; len(args) != cap(args) {
					t.Errorf("%s b%d.%d: %d arguments in capacity %d", f.Name, bi, ii, len(args), cap(args))
				}
			}
			if bi+1 < len(f.Blocks) {
				next := &f.Blocks[bi+1]
				instrs, targets := slices.Clone(next.Instrs), slices.Clone(next.Targets)
				_ = append(b.Instrs, tir.Instr{Op: tir.OpNop})
				_ = append(b.Targets, -1)
				if !reflect.DeepEqual(next.Instrs, instrs) || !reflect.DeepEqual(next.Targets, targets) {
					t.Errorf("%s: appending to b%d changed b%d", f.Name, bi, bi+1)
				}
			}
		}
	}
	if _, err := lang.Compile(`func main() { var j: int = 7; while (j > 0) { j--; } print(j); }`); err != nil {
		t.Fatal(err)
	}
	if after := tir.DisasmProgram(prog); after != before {
		t.Errorf("compiling a second program changed the first:\n%s\nwas:\n%s", after, before)
	}
}
