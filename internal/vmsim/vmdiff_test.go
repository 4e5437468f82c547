package vmsim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"jrpm/internal/annotate"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/lang"
	"jrpm/internal/profile"
	"jrpm/internal/tir"
	"jrpm/internal/trace"
	"jrpm/internal/vmsim"
	"jrpm/internal/vmsim/refvm"
	"jrpm/internal/workloads"
)

// The reference-oracle differential harness. The fast engine (vmsim.VM,
// pre-decoded stream + batched emission) and the reference oracle
// (refvm.VM, the original interpreter) execute the same programs on the
// same inputs, and every observable must match bit-for-bit:
//
//   - the full event stream (kinds, cycle timestamps, payloads, order),
//     call-boundary events included: callee, call pc and caller frame;
//   - the serialized trace bytes from an attached trace.Writer, a digest
//     of the annotated stream (the encoded header also pins the
//     TraceHash the recording is bound to);
//   - cycle counts, printed output, final heap contents, instruction-mix
//     counters;
//   - errors, compared as strings (faults must agree in message,
//     function and line);
//   - the TEST comparator-bank model's conclusions: Equation 1 estimates
//     feeding the Equation 2 selection must pick the identical STLs.
//
// Programs come from three pools: every Table 6 workload, every example
// .jr program, and the checked-in fuzz corpus (testdata/corpus), which
// FuzzVMDiff also seeds from.

// diffMaxSteps bounds corpus/example runs: auto-generated inputs can
// send a program into an unproductive loop, and the bound itself must be
// enforced identically by both engines.
const diffMaxSteps = 400000

// recorder captures the whole event stream.
type recorder struct {
	evs []vmsim.Event
}

func (r *recorder) ConsumeEvents(evs []vmsim.Event) { r.evs = append(r.evs, evs...) }

// engineResult is everything observable about one run of one engine.
type engineResult struct {
	errStr   string
	cycles   int64
	out      []byte
	mem      []uint64
	counters [8]int64
	events   []vmsim.Event
	traceB   []byte
	selected []int
}

// diffInput is a pre-sorted set of global bindings.
type diffInput struct {
	intNames   []string
	ints       map[string][]int64
	floatNames []string
	floats     map[string][]float64
}

func newDiffInput(ints map[string][]int64, floats map[string][]float64) diffInput {
	in := diffInput{ints: ints, floats: floats}
	for k := range ints {
		in.intNames = append(in.intNames, k)
	}
	for k := range floats {
		in.floatNames = append(in.floatNames, k)
	}
	sort.Strings(in.intNames)
	sort.Strings(in.floatNames)
	return in
}

// autoInput deterministically fabricates bindings for every global, for
// programs (corpus, examples, fuzz inputs) that have no harness.
func autoInput(prog *tir.Program) diffInput {
	ints := map[string][]int64{}
	floats := map[string][]float64{}
	for gi, g := range prog.Globals {
		const n = 64
		switch g.Kind {
		case tir.KindFloatArr:
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64((i*13+gi*7)%29)*0.625 - 3.5
			}
			floats[g.Name] = vals
		default:
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64((i*2654435761 + gi*977) % 251)
			}
			ints[g.Name] = vals
		}
	}
	return newDiffInput(ints, floats)
}

// runCfg selects what to attach to a run.
type runCfg struct {
	maxSteps    int64
	record      bool // attach the event recorder
	analyze     bool // attach core.Tracer + trace.Writer, run selection
	cleanCycles int64
}

func runFast(t *testing.T, prog *tir.Program, in diffInput, cfg runCfg) engineResult {
	t.Helper()
	vm := vmsim.New(prog)
	vm.MaxSteps = cfg.maxSteps
	var out bytes.Buffer
	vm.Out = &out

	hcfg := hydra.DefaultConfig()
	var tracer *core.Tracer
	var rec recorder
	var traceBuf bytes.Buffer
	var tw *trace.Writer
	if cfg.analyze {
		tracer = core.NewTracer(prog, hcfg, core.DefaultOptions())
		vm.Listeners = append(vm.Listeners, tracer)
	}
	if cfg.record {
		vm.Listeners = append(vm.Listeners, &rec)
	}
	if cfg.analyze {
		var err error
		tw, err = trace.NewWriter(&traceBuf, trace.ProgramHash(prog))
		if err != nil {
			t.Fatal(err)
		}
		vm.Listeners = append(vm.Listeners, tw)
	}

	bindInput(t, vm.BindGlobalInts, vm.BindGlobalFloats, in)
	runErr := vm.Run("main")

	res := engineResult{
		cycles: vm.Cycles,
		out:    out.Bytes(),
		mem:    vm.Mem,
		counters: [8]int64{vm.NHeapLoads, vm.NHeapStores, vm.NLocalLoads,
			vm.NLocalStores, vm.NLocalAnnot, vm.NLoopAnnot, vm.NReadStats, vm.NTrampolines},
		events: rec.evs,
	}
	if runErr != nil {
		res.errStr = runErr.Error()
	}
	if cfg.analyze {
		res.traceB = finishTrace(t, tw, &traceBuf, runErr == nil, res)
		if runErr == nil {
			an := profile.BuildTree(prog, tracer, vm.Cycles, cfg.cleanCycles, hcfg)
			an.Select(profile.DefaultSelectOptions())
			res.selected = an.SelectedLoopIDs()
		}
	}
	return res
}

func runRef(t *testing.T, prog *tir.Program, in diffInput, cfg runCfg) engineResult {
	t.Helper()
	vm := refvm.New(prog)
	vm.MaxSteps = cfg.maxSteps
	var out bytes.Buffer
	vm.Out = &out

	hcfg := hydra.DefaultConfig()
	var tracer *core.Tracer
	var rec recorder
	var traceBuf bytes.Buffer
	var tw *trace.Writer
	if cfg.analyze {
		tracer = core.NewTracer(prog, hcfg, core.DefaultOptions())
		vm.Listeners = append(vm.Listeners, tracer)
	}
	if cfg.record {
		vm.Listeners = append(vm.Listeners, &rec)
	}
	if cfg.analyze {
		var err error
		tw, err = trace.NewWriter(&traceBuf, trace.ProgramHash(prog))
		if err != nil {
			t.Fatal(err)
		}
		vm.Listeners = append(vm.Listeners, tw)
	}

	bindInput(t, vm.BindGlobalInts, vm.BindGlobalFloats, in)
	runErr := vm.Run("main")

	res := engineResult{
		cycles: vm.Cycles,
		out:    out.Bytes(),
		mem:    vm.Mem,
		counters: [8]int64{vm.NHeapLoads, vm.NHeapStores, vm.NLocalLoads,
			vm.NLocalStores, vm.NLocalAnnot, vm.NLoopAnnot, vm.NReadStats, vm.NTrampolines},
		events: rec.evs,
	}
	if runErr != nil {
		res.errStr = runErr.Error()
	}
	if cfg.analyze {
		res.traceB = finishTrace(t, tw, &traceBuf, runErr == nil, res)
		if runErr == nil {
			an := profile.BuildTree(prog, tracer, vm.Cycles, cfg.cleanCycles, hcfg)
			an.Select(profile.DefaultSelectOptions())
			res.selected = an.SelectedLoopIDs()
		}
	}
	return res
}

func bindInput(t *testing.T, bindInts func(string, []int64) error, bindFloats func(string, []float64) error, in diffInput) {
	t.Helper()
	for _, name := range in.intNames {
		if err := bindInts(name, in.ints[name]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range in.floatNames {
		if err := bindFloats(name, in.floats[name]); err != nil {
			t.Fatal(err)
		}
	}
}

// finishTrace seals the writer on successful runs (summary fields come
// from the run's own counters, identically derived for both engines) and
// returns the encoded bytes.
func finishTrace(t *testing.T, tw *trace.Writer, buf *bytes.Buffer, ok bool, res engineResult) []byte {
	t.Helper()
	if ok {
		err := tw.Finish(trace.Summary{
			TracedCycles: res.cycles,
			HeapLoads:    res.counters[0],
			HeapStores:   res.counters[1],
			LocalAnnots:  res.counters[4],
			LoopAnnots:   res.counters[5],
			ReadStats:    res.counters[6],
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func compareResults(t *testing.T, label string, fast, ref engineResult) {
	t.Helper()
	if fast.errStr != ref.errStr {
		t.Errorf("%s: error mismatch:\n  fast: %q\n  ref:  %q", label, fast.errStr, ref.errStr)
	}
	if fast.cycles != ref.cycles {
		t.Errorf("%s: cycles: fast %d, ref %d", label, fast.cycles, ref.cycles)
	}
	if !bytes.Equal(fast.out, ref.out) {
		t.Errorf("%s: printed output differs:\n  fast: %q\n  ref:  %q", label, fast.out, ref.out)
	}
	if !slices.Equal(fast.mem, ref.mem) {
		t.Errorf("%s: final heap contents differ (len fast %d, ref %d)", label, len(fast.mem), len(ref.mem))
	}
	if fast.counters != ref.counters {
		t.Errorf("%s: counters: fast %v, ref %v", label, fast.counters, ref.counters)
	}
	if len(fast.events) != len(ref.events) {
		t.Errorf("%s: event count: fast %d, ref %d", label, len(fast.events), len(ref.events))
	} else {
		for i := range fast.events {
			if fast.events[i] != ref.events[i] {
				t.Errorf("%s: event %d diverges:\n  fast: %+v\n  ref:  %+v", label, i, fast.events[i], ref.events[i])
				break
			}
		}
	}
	if !bytes.Equal(fast.traceB, ref.traceB) {
		t.Errorf("%s: serialized trace bytes differ (fast %d bytes, ref %d bytes)", label, len(fast.traceB), len(ref.traceB))
	}
	if !slices.Equal(fast.selected, ref.selected) {
		t.Errorf("%s: STL selection: fast %v, ref %v", label, fast.selected, ref.selected)
	}
}

// compilePair builds the clean and annotated programs exactly as
// jrpm.Compile does.
func compilePair(src string) (clean, ann *tir.Program, err error) {
	clean, err = lang.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	if _, err = annotate.Apply(clean, annotate.Options{}); err != nil {
		return nil, nil, err
	}
	ann, err = lang.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	if _, err = annotate.Apply(ann, annotate.Optimized()); err != nil {
		return nil, nil, err
	}
	return clean, ann, nil
}

// diffPrograms runs the full differential comparison for one source
// program: clean untraced, annotated with the event recorder, and
// annotated with the full tracer + writer + selection stack. Each
// configuration runs on the reference oracle and the predecoded engine,
// and the two must agree bit for bit. It returns the number of call
// events the oracle emitted, so callers can tell the call-event
// comparison was not vacuous.
func diffPrograms(t *testing.T, clean, ann *tir.Program, in diffInput, maxSteps int64) (calls int) {
	t.Helper()

	// The recorded-trace identity both engines bind their writers to
	// must agree before any run happens.
	if trace.ProgramHash(ann) != trace.ProgramHash(ann) {
		t.Fatal("TraceHash is not deterministic")
	}

	diffCfg := func(label string, prog *tir.Program, cfg runCfg) engineResult {
		ref := runRef(t, prog, in, cfg)
		compareResults(t, label+"/fast", runFast(t, prog, in, cfg), ref)
		return ref
	}

	fastClean := runFast(t, clean, in, runCfg{maxSteps: maxSteps})
	diffCfg("clean", clean, runCfg{maxSteps: maxSteps})

	ref := diffCfg("annotated/recorder", ann, runCfg{maxSteps: maxSteps, record: true})

	diffCfg("annotated/analysis", ann,
		runCfg{maxSteps: maxSteps, record: true, analyze: true, cleanCycles: fastClean.cycles})

	// jrpm derives the clean baseline from the annotated run's counters
	// instead of running the clean program; on every completed run the
	// derivation must equal the measured clean cycles.
	if ref.errStr == "" {
		tc, n := hydra.DefaultConfig().Tracer, ref.counters
		derived := ref.cycles - tc.AnnotCost*(n[4]+n[5]) - tc.ReadStatsCost*n[6] - n[7]
		if derived != fastClean.cycles {
			t.Errorf("derived clean cycles %d, measured %d", derived, fastClean.cycles)
		}
	}

	for _, ev := range ref.events {
		if ev.Kind == vmsim.EvCallEnter {
			calls++
		}
	}
	return calls
}

func diffSource(t *testing.T, src string, in func(*tir.Program) diffInput, maxSteps int64) int {
	t.Helper()
	clean, ann, err := compilePair(src)
	if err != nil {
		t.Fatal(err)
	}
	return diffPrograms(t, clean, ann, in(ann), maxSteps)
}

// corpusSources returns the checked-in differential corpus.
func corpusSources(t testing.TB) map[string]string {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.jr"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	out := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = string(data)
	}
	return out
}

// exampleSources returns every example .jr program in the repository.
func exampleSources(t testing.TB) map[string]string {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.jr"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example .jr programs found: %v", err)
	}
	out := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(filepath.Dir(p))+"/"+filepath.Base(p)] = string(data)
	}
	return out
}

// sweepSrc exercises every fused superinstruction form — array-address
// chains with and without loads, local increments, and `i < len(a)` loop
// headers — so a step limit swept across it lands on every micro-op
// position of every chain shape.
const sweepSrc = `
global a: int[];
global out: int[];

func main() {
	var s: int = 0;
	var r: int = 0;
	var i: int = 0;
	var j: int = 0;
	while (r < 300) {
		i = 0;
		while (i < len(a)) {
			out[i] = a[i] * 2 + a[0];
			i++;
		}
		j = 0;
		while (j < len(out)) {
			s = s + out[j];
			j++;
		}
		r++;
	}
	print(s);
}
`

// TestVMStepLimitSweep pins the fast engine's batched bookkeeping at its
// hardest edge: the step limit is swept one step at a time, so it
// expires at every micro-op position inside every fused chain, and both
// engines must stop at the identical instruction with identical cycle
// counts, counters and partial effects. A pre-set interrupt then checks
// the poll-boundary fallback the same way: the loop crosses the 8192-step
// poll boundary mid-execution and both engines must observe it there.
func TestVMStepLimitSweep(t *testing.T) {
	clean, ann, err := compilePair(sweepSrc)
	if err != nil {
		t.Fatal(err)
	}
	in := autoInput(ann)

	// Unlimited run first: the sweep range must cover the whole program.
	full := runFast(t, clean, in, runCfg{maxSteps: 1 << 40})
	if full.errStr != "" {
		t.Fatalf("unlimited run failed: %s", full.errStr)
	}

	for limit := int64(1); limit <= 2500; limit++ {
		cfg := runCfg{maxSteps: limit, record: true}
		ref := runRef(t, ann, in, cfg)
		compareResults(t, fmt.Sprintf("limit=%d/fast", limit), runFast(t, ann, in, cfg), ref)
	}

	// Interrupt observed at the throttled poll boundary: both engines
	// must take the same number of cycles to notice it. The annotated
	// program runs its loop latches and trampolines as fused
	// superinstructions, so it is checked as well as the clean one.
	for _, p := range []struct {
		name string
		prog *tir.Program
	}{{"clean", clean}, {"annotated", ann}} {
		fvm := vmsim.New(p.prog)
		fvm.Out = &bytes.Buffer{}
		bindInput(t, fvm.BindGlobalInts, fvm.BindGlobalFloats, in)
		fvm.Interrupt()
		fErr := fvm.Run("main")

		rvm := refvm.New(p.prog)
		rvm.Out = &bytes.Buffer{}
		bindInput(t, rvm.BindGlobalInts, rvm.BindGlobalFloats, in)
		rvm.Interrupt()
		rErr := rvm.Run("main")

		if fErr == nil {
			t.Fatalf("%s: program finished before crossing the poll boundary; interrupt never observed", p.name)
		}
		if fmt.Sprint(fErr) != fmt.Sprint(rErr) {
			t.Errorf("%s: interrupt error: fast %q, ref %q", p.name, fmt.Sprint(fErr), fmt.Sprint(rErr))
		}
		if fvm.Cycles != rvm.Cycles {
			t.Errorf("%s: interrupt cycles: fast %d, ref %d", p.name, fvm.Cycles, rvm.Cycles)
		}
	}
}

// TestLatchFusionCoversKernels keeps TestVMStepLimitSweep and
// TestVMDifferential from passing without exercising the fused loop
// latch: in every annotated paper kernel, no branch may reach an
// annotation trampoline unfused, and the kernels together must contain
// fused latches, folded branches and trampoline headers.
func TestLatchFusionCoversKernels(t *testing.T) {
	var latches, brs, headers int
	kernels := workloads.All()
	for _, w := range kernels {
		_, ann, err := compilePair(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Meta.Name, err)
		}
		l, b, h, unfused := vmsim.LatchFusion(vmsim.Predecode(ann))
		for _, u := range unfused {
			t.Errorf("%s: %s", w.Meta.Name, u)
		}
		latches, brs, headers = latches+l, brs+b, headers+h
	}
	if len(kernels) != 26 || latches == 0 || brs == 0 || headers == 0 {
		t.Errorf("%d kernels: %d fused latches, %d folded branches, %d trampoline headers; want 26 kernels and each count > 0",
			len(kernels), latches, brs, headers)
	}
	_, ann, err := compilePair(sweepSrc)
	if err != nil {
		t.Fatal(err)
	}
	if l, _, _, _ := vmsim.LatchFusion(vmsim.Predecode(ann)); l == 0 {
		t.Error("sweepSrc has no fused loop latch; TestVMStepLimitSweep would not sweep one")
	}
}

// TestVMDifferential is the acceptance gate for the fast engine: every
// workload, example and corpus program must behave bit-identically on
// both engines.
func TestVMDifferential(t *testing.T) {
	calls := 0
	for _, w := range workloads.All() {
		w := w
		t.Run("workload/"+w.Meta.Name, func(t *testing.T) {
			in := w.NewInput(0.25)
			calls += diffSource(t, w.Source, func(*tir.Program) diffInput {
				return newDiffInput(in.Ints, in.Floats)
			}, 0)
		})
	}
	if calls == 0 {
		t.Error("no workload emitted a call event; the call-event comparison is vacuous")
	}
	for name, src := range corpusSources(t) {
		src := src
		t.Run("corpus/"+name, func(t *testing.T) {
			diffSource(t, src, autoInput, diffMaxSteps)
		})
	}
	for name, src := range exampleSources(t) {
		src := src
		t.Run("example/"+name, func(t *testing.T) {
			diffSource(t, src, autoInput, diffMaxSteps)
		})
	}
}
