package scalar_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"jrpm/internal/annotate"
	"jrpm/internal/cfg"
	"jrpm/internal/corpus"
	"jrpm/internal/lang"
	"jrpm/internal/opt"
	"jrpm/internal/scalar"
	"jrpm/internal/tir"
	"jrpm/internal/workloads"
)

// analyze compiles src and returns the scalar analysis of the loop whose
// header is at the given nest position (0 = outermost discovered).
func analyze(t *testing.T, src string, loopIdx int) (*scalar.LoopScalars, *tir.Function) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, _, ok := prog.Lookup("main")
	if !ok {
		t.Fatal("no main")
	}
	g := cfg.Build(f)
	forest := g.NaturalLoops()
	if loopIdx >= len(forest.Loops) {
		t.Fatalf("loop %d not found; have %d", loopIdx, len(forest.Loops))
	}
	return scalar.Analyze(f, forest.Loops[loopIdx], g, forest), f
}

// classOf returns the classification of the named local.
func classOf(t *testing.T, sc *scalar.LoopScalars, f *tir.Function, name string) scalar.Class {
	t.Helper()
	for slot, cls := range sc.Classes {
		if f.Locals[slot].Name == name {
			return cls
		}
	}
	t.Fatalf("local %q not accessed in loop", name)
	return 0
}

func TestInductorClassification(t *testing.T) {
	sc, f := analyze(t, `
global a: int[];
func main() {
	var i: int = 0;
	var sum: int = 0;
	var x: int = 5;
	while (i < len(a)) {
		sum += a[i];     // reduction
		a[i] = a[i] * x; // x invariant
		i++;             // inductor
	}
}`, 0)
	if got := classOf(t, sc, f, "i"); got != scalar.ClassInductor {
		t.Errorf("i classified %v, want inductor", got)
	}
	if got := classOf(t, sc, f, "sum"); got != scalar.ClassReduction {
		t.Errorf("sum classified %v, want reduction", got)
	}
	if got := classOf(t, sc, f, "x"); got != scalar.ClassInvariant {
		t.Errorf("x classified %v, want invariant", got)
	}
	if len(sc.Annotated) != 0 {
		t.Errorf("annotated = %v, want none", sc.Annotated)
	}
	if sc.Reject != "" {
		t.Errorf("loop rejected: %s", sc.Reject)
	}
}

// TestHuffmanInPDistinction is the paper's key case (Figure 3): in_p++
// inside the inner loop is an eliminable iterator for the inner loop but a
// genuine dependency for the outer loop.
func TestHuffmanInPDistinction(t *testing.T) {
	src := `
global bits: int[];
global out: int[];
func main() {
	var in_p: int = 0;
	var out_p: int = 0;
	do {
		var n: int = 0;
		while (bits[in_p] == 0 && n < 10) {
			n++;
			in_p++;
		}
		out[out_p] = n;
		out_p++;
	} while (in_p < len(bits) - 1);
}`
	// Loops are discovered outer-first.
	outer, f := analyze(t, src, 0)
	inner, _ := analyze(t, src, 1)
	if got := classOf(t, outer, f, "in_p"); got != scalar.ClassPlain {
		t.Errorf("outer loop: in_p classified %v, want plain (data-dependent advance)", got)
	}
	if got := classOf(t, inner, f, "in_p"); got != scalar.ClassInductor {
		t.Errorf("inner loop: in_p classified %v, want inductor", got)
	}
	if got := classOf(t, outer, f, "out_p"); got != scalar.ClassInductor {
		t.Errorf("outer loop: out_p classified %v, want inductor", got)
	}
}

func TestConditionalUpdateIsNotInductor(t *testing.T) {
	// Figure 5's lcl_v--: updated only on one branch, so not once per
	// iteration — a real dependency the tracer must watch.
	sc, f := analyze(t, `
global a: int[];
func main() {
	var v: int = 10;
	var i: int = 0;
	while (i < len(a)) {
		if (a[i] > 0) {
			v = v - 1;
		}
		a[i] = v;
		i++;
	}
}`, 0)
	if got := classOf(t, sc, f, "v"); got != scalar.ClassPlain {
		t.Errorf("v classified %v, want plain (conditional update)", got)
	}
	if len(sc.Annotated) != 1 {
		t.Errorf("annotated = %v, want just v", sc.Annotated)
	}
}

func TestPrivateClassification(t *testing.T) {
	sc, f := analyze(t, `
global a: int[];
func main() {
	var i: int = 0;
	while (i < len(a)) {
		var tmp: int = a[i] * 3; // written before any read, every iteration
		a[i] = tmp + tmp;
		i++;
	}
}`, 0)
	if got := classOf(t, sc, f, "tmp"); got != scalar.ClassPrivate {
		t.Errorf("tmp classified %v, want private", got)
	}
}

func TestConditionalWriteIsNotPrivate(t *testing.T) {
	sc, f := analyze(t, `
global a: int[];
func main() {
	var i: int = 0;
	var last: int = 0;
	while (i < len(a)) {
		if (a[i] > 5) {
			last = a[i];
		}
		a[i] = last; // reads a value possibly from a previous iteration
		i++;
	}
}`, 0)
	if got := classOf(t, sc, f, "last"); got != scalar.ClassPlain {
		t.Errorf("last classified %v, want plain (conditionally defined)", got)
	}
}

// TestReductionRequiresExclusiveUse: an accumulator read for another
// purpose inside the loop is not transformable.
func TestReductionRequiresExclusiveUse(t *testing.T) {
	sc, f := analyze(t, `
global a: int[];
func main() {
	var s: int = 0;
	var i: int = 0;
	while (i < len(a)) {
		s += a[i];
		a[i] = s; // observes intermediate values
		i++;
	}
}`, 0)
	if got := classOf(t, sc, f, "s"); got != scalar.ClassPlain {
		t.Errorf("s classified %v, want plain (intermediate values observed)", got)
	}
}

// TestSerialRecurrenceScreen rejects the obvious end-of-loop-store /
// start-of-loop-load recurrence of section 4.1.
func TestSerialRecurrenceScreen(t *testing.T) {
	sc, _ := analyze(t, `
global a: int[];
func main() {
	var p: int = 0;
	while (a[p] != -1) {
		p = a[p];
	}
}`, 0)
	if sc.Reject == "" {
		t.Fatal("pointer-chase loop not rejected by the scalar screen")
	}
	if !strings.Contains(sc.Reject, "p") {
		t.Fatalf("rejection %q does not name the recurrence variable", sc.Reject)
	}
}

// TestMulReduction: products are reductions too.
func TestMulReduction(t *testing.T) {
	sc, f := analyze(t, `
global a: int[];
func main() {
	var prod: int = 1;
	var i: int = 0;
	while (i < len(a)) {
		prod *= a[i];
		i++;
	}
}`, 0)
	if got := classOf(t, sc, f, "prod"); got != scalar.ClassReduction {
		t.Errorf("prod classified %v, want reduction", got)
	}
}

// TestFloatReduction: float accumulators behave like int ones.
func TestFloatReduction(t *testing.T) {
	sc, f := analyze(t, `
global x: float[];
func main() {
	var s: float = 0.0;
	var i: int = 0;
	while (i < len(x)) {
		s = s + x[i];
		i++;
	}
}`, 0)
	if got := classOf(t, sc, f, "s"); got != scalar.ClassReduction {
		t.Errorf("s classified %v, want reduction", got)
	}
}

// TestClassString covers the diagnostic names.
func TestClassString(t *testing.T) {
	want := map[scalar.Class]string{
		scalar.ClassPlain:     "plain",
		scalar.ClassInductor:  "inductor",
		scalar.ClassReduction: "reduction",
		scalar.ClassInvariant: "invariant",
		scalar.ClassPrivate:   "private",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

// TestAnalyzeMatchesReference requires Analyze and the map-based
// reference to agree on every loop of the 26 kernels and the 500
// default-corpus programs, with the optimizer off and on, both on the
// program as compiled (what annotate analyzes) and after annotation
// (what the recompiler analyzes).
func TestAnalyzeMatchesReference(t *testing.T) {
	type source struct{ name, src string }
	var srcs []source
	for _, w := range workloads.All() {
		srcs = append(srcs, source{"kernel/" + w.Meta.Name, w.Source})
	}
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		srcs = append(srcs, source{"corpus/" + p.SHA256[:12], p.Source})
	}
	loops := 0
	for _, s := range srcs {
		name := s.name
		for _, optimize := range []bool{false, true} {
			prog, err := lang.Compile(s.src)
			if err != nil {
				t.Fatal(err)
			}
			if optimize {
				opt.Program(prog)
			}
			loops += checkAgainstReference(t, name, prog)
			if _, err := annotate.Apply(prog, annotate.Optimized()); err != nil {
				t.Fatal(err)
			}
			loops += checkAgainstReference(t, name+"/annotated", prog)
		}
	}
	if loops < len(srcs) {
		t.Fatalf("only %d loops checked over %d programs", loops, len(srcs))
	}
	t.Logf("%d loop analyses over %d programs agree with the reference", loops, len(srcs))
}

func checkAgainstReference(t *testing.T, name string, prog *tir.Program) int {
	t.Helper()
	n := 0
	for _, f := range prog.Funcs {
		g := cfg.Build(f)
		forest := g.NaturalLoops()
		for _, l := range forest.Loops {
			got, want := scalar.Analyze(f, l, g, forest), refAnalyze(f, l, g, forest)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s loop at b%d: Analyze %+v, reference %+v", name, f.Name, l.Header, got, want)
			}
			n++
		}
	}
	return n
}

// TestAnalyzeRegisterReuse pins two register-tracking rules on
// hand-built single-block loops that the compiler does not emit today,
// against the reference: a register loaded from a slot stops counting as
// the slot's value once the slot is stored, and one load feeding two
// self-updates counts once.
func TestAnalyzeRegisterReuse(t *testing.T) {
	const s, c = 0, 1 // slots: the variable under test, the loop condition
	ld := func(dst tir.Reg, slot int) tir.Instr { return tir.Instr{Op: tir.OpLdLoc, Dst: dst, Slot: slot} }
	st := func(slot int, a tir.Reg) tir.Instr { return tir.Instr{Op: tir.OpStLoc, Slot: slot, A: a} }
	op := func(o tir.Op, dst, a, b tir.Reg) tir.Instr { return tir.Instr{Op: o, Dst: dst, A: a, B: b} }
	cases := []struct {
		name string
		body []tir.Instr
	}{
		{"stale load after store", []tir.Instr{
			ld(1, s), ld(2, s),
			{Op: tir.OpConstI, Dst: 3, Imm: 1},
			op(tir.OpAdd, 4, 2, 3), st(s, 4), // s = s + 1
			{Op: tir.OpCall, Dst: tir.NoReg},
			op(tir.OpAdd, 5, 1, 3), st(s, 5), // s = (old s) + 1: not a self-update
		}},
		{"one load, two self-updates", []tir.Instr{
			ld(1, s),
			{Op: tir.OpConstI, Dst: 3, Imm: 2},
			op(tir.OpMul, 4, 1, 3), op(tir.OpMul, 5, 1, 3),
			st(s, 4), st(s, 5), ld(6, s),
		}},
	}
	for _, tc := range cases {
		body := append(tc.body, ld(7, c), tir.Instr{Op: tir.OpBrIf, A: 7})
		f := &tir.Function{
			Name:    "f",
			Locals:  []tir.Local{{Name: "s"}, {Name: "c"}},
			NumRegs: 8,
			Blocks: []tir.Block{
				{Instrs: []tir.Instr{{Op: tir.OpBr}}, Targets: []int{1}},
				{Instrs: body, Targets: []int{1, 2}},
				{Instrs: []tir.Instr{{Op: tir.OpRet}}},
			},
		}
		g := cfg.Build(f)
		forest := g.NaturalLoops()
		l := forest.ByHeader[1]
		got, want := scalar.Analyze(f, l, g, forest), refAnalyze(f, l, g, forest)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Analyze %+v, reference %+v", tc.name, got, want)
		}
		if got.Classes[s] != scalar.ClassPlain {
			t.Errorf("%s: s classified %v, want plain", tc.name, got.Classes[s])
		}
	}
}

// TestAnalyzeAllocsIndependentOfBodySize is the scalar analysis's
// allocation gate: Analyze allocates per loop and per slot, never per
// instruction (its register, instruction, slot and block files are
// scratch kept across loops and calls), so a loop body sixteen times
// longer (same locals, every class represented) costs the same number
// of allocations.
func TestAnalyzeAllocsIndependentOfBodySize(t *testing.T) {
	allocs := func(reps int) float64 {
		body := strings.Repeat(`
		s = s + a[i];       // reduction
		t = a[i] * 3;       // private
		a[i] = t + p + v;
		v = a[i] + v * 2;   // plain
		p = p + 1;          // inductor
`, reps)
		prog, err := lang.Compile(`
global a: int[];
func main() {
	var i: int = 0;
	var s: int = 0;
	var t: int = 0;
	var p: int = 0;
	var v: int = 0;
	while (i < len(a)) {` + body + `
		i++;
	}
}`)
		if err != nil {
			t.Fatal(err)
		}
		f, _, _ := prog.Lookup("main")
		g := cfg.Build(f)
		forest := g.NaturalLoops()
		l := forest.Loops[0]
		sc := scalar.Analyze(f, l, g, forest)
		if len(sc.Accessed) != 5 || len(sc.Annotated) != 1 {
			t.Fatalf("accessed %v, annotated %v: want all five locals, v annotated", sc.Accessed, sc.Annotated)
		}
		return testing.AllocsPerRun(20, func() { scalar.Analyze(f, l, g, forest) })
	}
	small, large := allocs(4), allocs(64)
	t.Logf("Analyze allocations: %.0f with 4 repetitions of the body, %.0f with 64", small, large)
	if large != small {
		t.Errorf("Analyze allocations grow with the loop body: %.0f -> %.0f", small, large)
	}
}

// The reference analyzer below is the map-based implementation Analyze
// replaced; TestAnalyzeMatchesReference holds the two to identical
// results.

// Analyze classifies the named locals of loop l in function f. The graph
// and forest must be the ones l came from.
func refAnalyze(f *tir.Function, l *cfg.Loop, g *cfg.Graph, forest *cfg.Forest) *scalar.LoopScalars {
	res := &scalar.LoopScalars{Classes: map[int]scalar.Class{}}

	loads := map[int]int{}         // slot -> LdLoc count in loop
	stores := map[int]int{}        // slot -> StLoc count in loop
	selfOp := map[int]int{}        // stores of the form s = s OP x
	indOp := map[int]int{}         // stores of the form s = s ± const
	selfLoads := map[int]int{}     // LdLoc instructions feeding a self-update
	storeBlocks := map[int][]int{} // slot -> blocks containing its stores

	for bi := range f.Blocks {
		if !l.Blocks[bi] {
			continue
		}
		refAnalyzeBlock(bi, f.Blocks[bi].Instrs, loads, stores, selfOp, indOp, selfLoads, storeBlocks)
	}

	seen := map[int]bool{}
	for s := range loads {
		seen[s] = true
	}
	for s := range stores {
		seen[s] = true
	}
	for s := range seen {
		res.Accessed = append(res.Accessed, s)
	}
	sort.Ints(res.Accessed)

	idom := g.Dominators()
	oncePerIter := func(slot int) bool {
		for _, sb := range storeBlocks[slot] {
			if refInNestedLoop(sb, l, forest) {
				return false
			}
			for _, latch := range l.Latches {
				if !cfg.Dominates(idom, sb, latch) {
					return false
				}
			}
		}
		return true
	}

	for _, s := range res.Accessed {
		cls := scalar.ClassPlain
		switch {
		case stores[s] == 0:
			cls = scalar.ClassInvariant
		case indOp[s] == stores[s] && oncePerIter(s):
			cls = scalar.ClassInductor
		case selfOp[s] == stores[s] && loads[s] == selfLoads[s] && loads[s] == stores[s]:
			cls = scalar.ClassReduction
		case refDefinedBeforeUsed(f, l, g, s):
			cls = scalar.ClassPrivate
		}
		res.Classes[s] = cls
		if cls == scalar.ClassPlain {
			res.Annotated = append(res.Annotated, s)
		}
	}

	res.Reject = refScreen(f, l, res)
	return res
}

// definedBeforeUsed reports whether every load of slot inside the loop is
// preceded, on every path from the loop header, by a store of the slot in
// the same iteration — the classic privatization condition ("local
// variable initializers are communicated to each thread"). It is a
// must-define forward dataflow over the loop body with the header entry
// forced undefined, so a value can never be observed across an iteration
// boundary.
func refDefinedBeforeUsed(f *tir.Function, l *cfg.Loop, g *cfg.Graph, slot int) bool {
	// Per-block facts: does the block have a load before any store of the
	// slot (upward-exposed use), and does it store the slot at all?
	upUse := map[int]bool{}
	hasStore := map[int]bool{}
	for b := range l.Blocks {
		seenStore := false
		for i := range f.Blocks[b].Instrs {
			in := &f.Blocks[b].Instrs[i]
			if in.Op == tir.OpStLoc && in.Slot == slot {
				hasStore[b] = true
				seenStore = true
			}
			if in.Op == tir.OpLdLoc && in.Slot == slot && !seenStore {
				upUse[b] = true
			}
		}
	}
	// Optimistic must-define iteration: defIn[b] true unless proven
	// otherwise; the header entry is undefined (iteration start).
	defIn := map[int]bool{}
	for b := range l.Blocks {
		defIn[b] = b != l.Header
	}
	changed := true
	for changed {
		changed = false
		for b := range l.Blocks {
			in := defIn[b]
			if b != l.Header {
				in = true
				for _, p := range g.Preds[b] {
					if !l.Blocks[p] {
						continue
					}
					if !(defIn[p] || hasStore[p]) {
						in = false
						break
					}
				}
			} else {
				in = false
			}
			if in != defIn[b] {
				defIn[b] = in
				changed = true
			}
		}
	}
	for b := range l.Blocks {
		if upUse[b] && !defIn[b] {
			return false
		}
	}
	// A slot never loaded in the loop is trivially private, but that case
	// is classified earlier; require at least one store so scalar.ClassPrivate
	// only applies to written variables.
	return len(hasStore) > 0
}

// inNestedLoop reports whether block b belongs to a loop strictly nested
// inside l.
func refInNestedLoop(b int, l *cfg.Loop, forest *cfg.Forest) bool {
	for _, m := range forest.Loops {
		if m == l || !m.Blocks[b] {
			continue
		}
		if l.Blocks[m.Header] {
			return true
		}
	}
	return false
}

// analyzeBlock performs a single pass over one block, tracking, per
// register, whether it currently holds the value of a LdLoc of some slot
// or a constant, in order to pattern-match self-updates.
func refAnalyzeBlock(bi int, instrs []tir.Instr, loads, stores, selfOp, indOp, selfLoads map[int]int, storeBlocks map[int][]int) {
	type def struct {
		fromSlot int // -1 if not a direct LdLoc value
		isConst  bool
		ldIdx    int // instruction index of the LdLoc
	}
	defs := map[tir.Reg]def{}
	usedBySelf := map[int]bool{}

	// chains[reg] records "LdLoc(slot) OP x" results.
	type chain struct {
		slot  int
		ind   bool // OP is ± with a constant other operand
		ldIdx int
	}
	chains := map[tir.Reg]chain{}

	for idx := range instrs {
		in := &instrs[idx]
		switch in.Op {
		case tir.OpLdLoc:
			loads[in.Slot]++
			defs[in.Dst] = def{fromSlot: in.Slot, ldIdx: idx}
			delete(chains, in.Dst)
		case tir.OpConstI, tir.OpConstF:
			defs[in.Dst] = def{fromSlot: -1, isConst: true}
			delete(chains, in.Dst)
		case tir.OpAdd, tir.OpSub, tir.OpFAdd, tir.OpFSub, tir.OpMul, tir.OpFMul:
			a, aok := defs[in.A]
			b, bok := defs[in.B]
			c := chain{slot: -1}
			addSub := in.Op == tir.OpAdd || in.Op == tir.OpSub || in.Op == tir.OpFAdd || in.Op == tir.OpFSub
			if aok && a.fromSlot >= 0 {
				c = chain{slot: a.fromSlot, ind: addSub && bok && b.isConst, ldIdx: a.ldIdx}
			} else if bok && b.fromSlot >= 0 && in.Op != tir.OpSub && in.Op != tir.OpFSub {
				c = chain{slot: b.fromSlot, ind: addSub && aok && a.isConst, ldIdx: b.ldIdx}
			}
			if c.slot >= 0 {
				chains[in.Dst] = c
			} else {
				delete(chains, in.Dst)
			}
			defs[in.Dst] = def{fromSlot: -1}
		case tir.OpStLoc:
			stores[in.Slot]++
			storeBlocks[in.Slot] = append(storeBlocks[in.Slot], bi)
			if c, ok := chains[in.A]; ok && c.slot == in.Slot {
				selfOp[in.Slot]++
				if c.ind {
					indOp[in.Slot]++
				}
				if !usedBySelf[c.ldIdx] {
					usedBySelf[c.ldIdx] = true
					selfLoads[in.Slot]++
				}
			}
			for r, d := range defs {
				if d.fromSlot == in.Slot {
					delete(defs, r)
				}
			}
		default:
			if refWritesDst(in.Op) {
				defs[in.Dst] = def{fromSlot: -1}
				delete(chains, in.Dst)
			}
		}
	}
}

// writesDst reports whether op defines its Dst register (instructions like
// Br, Store or the annotations leave Dst zero-valued but meaningless).
func refWritesDst(op tir.Op) bool {
	switch op {
	case tir.OpStore, tir.OpStLoc, tir.OpBr, tir.OpBrIf, tir.OpRet, tir.OpPrint,
		tir.OpNop, tir.OpSLoop, tir.OpELoop, tir.OpEOI, tir.OpLWL, tir.OpSWL, tir.OpReadStats:
		return false
	case tir.OpCall:
		return true // Dst may be NoReg; the map key -1 is harmless
	default:
		return true
	}
}

// screen applies the obvious-serialization rejection: a plain scalar that
// is loaded at the very start of the loop header and stored in every
// latch block (after its last load there) forms an end-of-loop-store ->
// start-of-loop-load recurrence whose dependency arc spans the whole
// iteration, eliminating any speedup.
func refScreen(f *tir.Function, l *cfg.Loop, res *scalar.LoopScalars) string {
	header := f.Blocks[l.Header].Instrs
	for _, slot := range res.Annotated {
		if !refStoredInLoop(f, l, slot) {
			continue
		}
		headLoad := false
		for i := range header {
			if header[i].Op == tir.OpStLoc && header[i].Slot == slot {
				break
			}
			if header[i].Op == tir.OpLdLoc && header[i].Slot == slot {
				headLoad = true
				break
			}
		}
		if !headLoad {
			continue
		}
		tail := true
		for _, latch := range l.Latches {
			instrs := f.Blocks[latch].Instrs
			lastStore, lastLoad := -1, -1
			for i := range instrs {
				if instrs[i].Op == tir.OpStLoc && instrs[i].Slot == slot {
					lastStore = i
				}
				if instrs[i].Op == tir.OpLdLoc && instrs[i].Slot == slot {
					lastLoad = i
				}
			}
			if lastStore == -1 || lastStore < lastLoad {
				tail = false
				break
			}
		}
		if tail {
			return "serial scalar recurrence on " + f.Locals[slot].Name
		}
	}
	return ""
}

func refStoredInLoop(f *tir.Function, l *cfg.Loop, slot int) bool {
	for bi := range f.Blocks {
		if !l.Blocks[bi] {
			continue
		}
		for i := range f.Blocks[bi].Instrs {
			in := &f.Blocks[bi].Instrs[i]
			if in.Op == tir.OpStLoc && in.Slot == slot {
				return true
			}
		}
	}
	return false
}
