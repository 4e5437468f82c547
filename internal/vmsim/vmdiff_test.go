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
	counters [7]int64
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
	native      bool // install the closure-threaded native tier on every loop
	cleanCycles int64
}

func runFast(t *testing.T, prog *tir.Program, in diffInput, cfg runCfg) engineResult {
	t.Helper()
	vm := vmsim.New(prog)
	vm.MaxSteps = cfg.maxSteps
	var out bytes.Buffer
	vm.Out = &out
	if cfg.native {
		if _, err := vm.InstallNativeAll(); err != nil {
			t.Fatal(err)
		}
	}

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
		counters: [7]int64{vm.NHeapLoads, vm.NHeapStores, vm.NLocalLoads,
			vm.NLocalStores, vm.NLocalAnnot, vm.NLoopAnnot, vm.NReadStats},
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
		counters: [7]int64{vm.NHeapLoads, vm.NHeapStores, vm.NLocalLoads,
			vm.NLocalStores, vm.NLocalAnnot, vm.NLoopAnnot, vm.NReadStats},
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

// diffPrograms runs the full three-way differential comparison for one
// source program: clean untraced, annotated with the event recorder, and
// annotated with the full tracer + writer + selection
// stack. Each configuration runs on the reference oracle, the predecoded
// engine, and the predecoded engine with the closure-threaded native
// tier installed on every loop; the oracle is the pivot for both
// comparisons. It returns the number of call events the oracle emitted,
// so callers can tell the call-event comparison was not vacuous.
func diffPrograms(t *testing.T, clean, ann *tir.Program, in diffInput, maxSteps int64) (calls int) {
	t.Helper()

	// The recorded-trace identity all engines bind their writers to
	// must agree before any run happens.
	if trace.ProgramHash(ann) != trace.ProgramHash(ann) {
		t.Fatal("TraceHash is not deterministic")
	}

	diffCfg := func(label string, prog *tir.Program, cfg runCfg) engineResult {
		ref := runRef(t, prog, in, cfg)
		compareResults(t, label+"/fast", runFast(t, prog, in, cfg), ref)
		ncfg := cfg
		ncfg.native = true
		compareResults(t, label+"/native", runFast(t, prog, in, ncfg), ref)
		return ref
	}

	fastClean := runFast(t, clean, in, runCfg{maxSteps: maxSteps})
	diffCfg("clean", clean, runCfg{maxSteps: maxSteps})

	ref := diffCfg("annotated/recorder", ann, runCfg{maxSteps: maxSteps, record: true})

	diffCfg("annotated/analysis", ann,
		runCfg{maxSteps: maxSteps, record: true, analyze: true, cleanCycles: fastClean.cycles})

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
		// The native tier must stop on the identical micro-op: the sweep
		// lands the limit on every position inside every fused closure
		// chain, which the entry precheck turns into an entry deopt (the
		// header block re-runs interpretively) or a mid-region window
		// exit.
		ncfg := cfg
		ncfg.native = true
		compareResults(t, fmt.Sprintf("limit=%d/native", limit), runFast(t, ann, in, ncfg), ref)
	}

	// Interrupt observed at the throttled poll boundary: all engines
	// must take the same number of cycles to notice it. For the native
	// tier the 8192-step poll lands inside a compiled loop, so the entry
	// precheck must deopt and let the interpreter observe it on the
	// identical instruction.
	fvm := vmsim.New(clean)
	fvm.Out = &bytes.Buffer{}
	bindInput(t, fvm.BindGlobalInts, fvm.BindGlobalFloats, in)
	fvm.Interrupt()
	fErr := fvm.Run("main")

	nvm := vmsim.New(clean)
	nvm.Out = &bytes.Buffer{}
	if _, err := nvm.InstallNativeAll(); err != nil {
		t.Fatal(err)
	}
	bindInput(t, nvm.BindGlobalInts, nvm.BindGlobalFloats, in)
	nvm.Interrupt()
	nErr := nvm.Run("main")

	rvm := refvm.New(clean)
	rvm.Out = &bytes.Buffer{}
	bindInput(t, rvm.BindGlobalInts, rvm.BindGlobalFloats, in)
	rvm.Interrupt()
	rErr := rvm.Run("main")

	if fErr == nil {
		t.Fatal("program finished before crossing the poll boundary; interrupt never observed")
	}
	if fmt.Sprint(fErr) != fmt.Sprint(rErr) {
		t.Errorf("interrupt error: fast %q, ref %q", fmt.Sprint(fErr), fmt.Sprint(rErr))
	}
	if fvm.Cycles != rvm.Cycles {
		t.Errorf("interrupt cycles: fast %d, ref %d", fvm.Cycles, rvm.Cycles)
	}
	if fmt.Sprint(nErr) != fmt.Sprint(rErr) {
		t.Errorf("interrupt error: native %q, ref %q", fmt.Sprint(nErr), fmt.Sprint(rErr))
	}
	if nvm.Cycles != rvm.Cycles {
		t.Errorf("interrupt cycles: native %d, ref %d", nvm.Cycles, rvm.Cycles)
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
