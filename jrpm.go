// Package jrpm is the public API of this reproduction of "TEST: A Tracer
// for Extracting Speculative Threads" (Chen & Olukotun, CGO 2003): a
// complete Java Runtime Parallelizing Machine pipeline over the JR
// language.
//
// The pipeline mirrors Figure 1 of the paper:
//
//  1. Compile the source and identify potential STLs (natural loops that
//     pass the scalar screen), inserting annotation instructions.
//  2. Run the annotated program sequentially; the TEST comparator-bank
//     model collects dependency and buffer statistics per loop.
//  3. Post-process the statistics: estimate each loop's speculative
//     speedup (Equation 1) and choose the best decompositions
//     (Equation 2).
//  4. Recompile the chosen loops as speculative threads.
//  5. Run the speculative code — here, a trace-driven TLS timing
//     simulation of the 4-CPU Hydra CMP.
//
// Profile covers steps 1–3; Speculate covers steps 4–5.
//
// The compile stage (step 1) and the run stages (steps 2–5) are split:
// Compile produces a Compiled artifact that is immutable afterwards and
// can be profiled many times, concurrently, against different inputs.
// internal/service builds its content-addressed artifact cache on this
// split, so a daemon re-profiling the same source skips lexing, parsing,
// code generation and annotation entirely.
package jrpm

import (
	"context"
	"errors"
	"fmt"

	"jrpm/internal/annotate"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/lang"
	"jrpm/internal/opt"
	"jrpm/internal/profile"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// Version identifies the module build; jrpmd reports it on
// GET /v1/version so a cluster coordinator can tell apart workers by
// build as well as by trace-format version.
const Version = "0.4.0"

// NativeLoopStats is the per-loop execution record of the closure-
// threaded native tier (re-exported from vmsim for API consumers).
type NativeLoopStats = vmsim.NativeLoopStats

// Input binds harness data to a program's global arrays.
type Input struct {
	Ints   map[string][]int64
	Floats map[string][]float64
}

// Options configures the pipeline. The zero value of any field is
// replaced by the corresponding DefaultOptions field (see Normalize).
type Options struct {
	Cfg    hydra.Config
	Annot  annotate.Options
	Tracer core.Options
	Select profile.SelectOptions
	// Optimize runs the microJIT scalar optimizer (constant folding, copy
	// propagation, dead-register elimination) before annotation, as the
	// paper's dynamic compiler does. Off by default so the published
	// experiment numbers stay stable; see BenchmarkOptimizerEffect.
	Optimize bool
	// SamplePeriod, when > 0, attaches a sampling profiler to the traced
	// run: one sample every SamplePeriod VM steps (rounded up to the
	// interpreter's poll window), attributed to the executing function
	// and the active annotated-loop stack. 0 leaves the dispatch loop
	// untouched. See ProfileResult.Samples.
	SamplePeriod int64
	// NativeLoops lists annotated-loop IDs to execute on the closure-
	// threaded native tier (internal/vmsim/native) during the profile
	// runs. The tier is bit-identical to the interpreter — simulated
	// cycles, events, counters and traces are unaffected; only wall-clock
	// speed changes — so it is safe to enable per-epoch from adaptive
	// sessions. Loops the native compiler rejects silently stay on the
	// predecoded tier; see ProfileResult.Native and NativeRejected.
	NativeLoops []int
}

// DefaultOptions returns the paper's setup: the Hydra configuration,
// optimized annotations, default runtime policies.
func DefaultOptions() Options {
	return Options{
		Cfg:    hydra.DefaultConfig(),
		Annot:  annotate.Optimized(),
		Tracer: core.DefaultOptions(),
		Select: profile.DefaultSelectOptions(),
	}
}

// Normalize substitutes defaults for each unset Options field
// independently: a caller who sets Cfg but leaves Annot, Tracer or Select
// zero gets the default policies for the fields they left out, not
// zero-valued ones. A zero-valued field means "unset" — callers who need
// a policy whose meaningful configuration happens to equal the zero value
// must set at least one other field of that policy struct.
func Normalize(opts Options) Options {
	d := DefaultOptions()
	if opts.Cfg.CPUs == 0 {
		opts.Cfg = d.Cfg
	}
	if opts.Annot == (annotate.Options{}) {
		opts.Annot = d.Annot
	}
	if opts.Tracer == (core.Options{}) {
		opts.Tracer = d.Tracer
	}
	if opts.Select == (profile.SelectOptions{}) {
		opts.Select = d.Select
	}
	return opts
}

// Compiled holds the compile-stage artifacts for one source program: the
// clean program (loop table filled, no instrumentation) and the annotated
// program traced by TEST. Both programs are read-only once Compile
// returns — see the tir.Program documentation — so a Compiled may be
// shared freely across goroutines and profiled concurrently; each Profile
// call builds its own VM and Tracer.
type Compiled struct {
	Clean     *tir.Program
	Annotated *tir.Program
	// AnnotationCount is the number of annotation instructions inserted
	// into Annotated.
	AnnotationCount int
	// Annot and Optimize record the compile-stage options the artifact
	// was built with (the run-stage options are free to vary per Profile
	// call).
	Annot    annotate.Options
	Optimize bool
}

// Compile runs the compile stage (step 1) once: lex, parse, generate TIR,
// optionally run the scalar optimizer, discover loops, and insert
// annotations per opts.Annot. Only opts.Annot and opts.Optimize affect
// the artifact; the remaining fields configure the run stages.
func Compile(src string, opts Options) (*Compiled, error) {
	opts = Normalize(opts)
	clean, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	if opts.Optimize {
		opt.Program(clean)
	}
	if _, err := annotate.Apply(clean, annotate.Options{}); err != nil {
		return nil, fmt.Errorf("loop discovery: %w", err)
	}

	annotated, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	if opts.Optimize {
		opt.Program(annotated)
	}
	nAnnot, err := annotate.Apply(annotated, opts.Annot)
	if err != nil {
		return nil, fmt.Errorf("annotate: %w", err)
	}
	// Lower both programs to the VM's pre-decoded instruction stream now,
	// while this is still the compile stage: every later Profile/RunClean
	// (and every jrpmd worker sharing this artifact) hits the decode
	// cache instead of paying the lowering on its first run.
	vmsim.Predecode(clean)
	vmsim.Predecode(annotated)
	return &Compiled{
		Clean:           clean,
		Annotated:       annotated,
		AnnotationCount: nAnnot,
		Annot:           opts.Annot,
		Optimize:        opts.Optimize,
	}, nil
}

// ProfileResult is the outcome of the profiling phase (steps 1-3).
type ProfileResult struct {
	// Clean is the compiled program without annotations; Annotated is the
	// program that was traced.
	Clean     *tir.Program
	Annotated *tir.Program
	// CleanCycles is the sequential execution time without tracing;
	// TracedCycles the time with annotation overheads (Figure 6 compares
	// the two).
	CleanCycles  int64
	TracedCycles int64
	// Tracer is the TEST hardware model after the run.
	Tracer *core.Tracer
	// Analysis holds the loop tree, Equation 1 estimates and the
	// Equation 2 selection.
	Analysis *profile.Analysis
	// Event counters from the traced run.
	HeapLoads, HeapStores, LocalAnnots, LoopAnnots, ReadStats int64
	// Samples is the sampling-profiler result for the traced run; nil
	// unless Options.SamplePeriod was set.
	Samples *vmsim.SampleProfile
	// Native reports the native tier's execution of the traced run (one
	// entry per compiled loop); nil unless Options.NativeLoops was set.
	// NativeRejected maps requested loop IDs the native compiler refused
	// to their reasons.
	Native         []vmsim.NativeLoopStats
	NativeRejected map[int]string
	// AnnotationCount is the number of annotation instructions inserted.
	AnnotationCount int
	Opts            Options
}

// Slowdown is the tracing overhead: traced time / clean time.
func (r *ProfileResult) Slowdown() float64 {
	if r.CleanCycles == 0 {
		return 1
	}
	return float64(r.TracedCycles) / float64(r.CleanCycles)
}

func newVM(prog *tir.Program, in Input, cfg hydra.Config) (*vmsim.VM, error) {
	vm := vmsim.New(prog)
	vm.AnnotCost = cfg.Tracer.AnnotCost
	vm.ReadStatsCost = cfg.Tracer.ReadStatsCost
	return vm, vm.BindInputs(in.Ints, in.Floats)
}

// runVM executes the VM's main function under ctx: when ctx is canceled
// or times out the VM is interrupted at the next check point and the
// context's cause is returned.
func runVM(ctx context.Context, vm *vmsim.VM) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	stop := context.AfterFunc(ctx, vm.Interrupt)
	defer stop()
	err := vm.Run("main")
	if errors.Is(err, vmsim.ErrInterrupted) {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
	}
	return err
}

// RunClean compiles and runs src without any instrumentation, returning
// the program and its sequential cycle count.
func RunClean(src string, in Input, cfg hydra.Config) (*tir.Program, int64, error) {
	prog, err := lang.Compile(src)
	if err != nil {
		return nil, 0, err
	}
	if _, err := annotate.Apply(prog, annotate.Options{}); err != nil {
		return nil, 0, fmt.Errorf("loop discovery: %w", err)
	}
	vm, err := newVM(prog, in, cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := vm.Run("main"); err != nil {
		return nil, 0, err
	}
	return prog, vm.Cycles, nil
}

// Profile runs the full profiling phase on a JR source program.
func Profile(src string, in Input, opts Options) (*ProfileResult, error) {
	opts = Normalize(opts)
	c, err := Compile(src, opts)
	if err != nil {
		return nil, err
	}
	return c.Profile(context.Background(), in, opts)
}

// Profile runs the run stages of the profiling phase (steps 2-3) on a
// pre-compiled artifact: a clean sequential run for the baseline cycle
// count, a traced run with the TEST model attached, then tree building,
// Equation 1 estimation and Equation 2 selection.
//
// Only the run-stage fields of opts (Cfg, Tracer, Select) are consulted;
// the compile-stage fields were fixed when c was built. Safe for
// concurrent use on a shared c: every call builds its own VMs and Tracer.
func (c *Compiled) Profile(ctx context.Context, in Input, opts Options) (*ProfileResult, error) {
	return c.profileWith(ctx, in, opts)
}

// profileWith is Profile with extra listeners attached to the traced run
// after the TEST tracer. ProfileRecord passes the trace writer here, so
// the recorded event stream is — by construction — the exact sequence the
// live comparator-bank model consumed.
func (c *Compiled) profileWith(ctx context.Context, in Input, opts Options, extra ...vmsim.Listener) (*ProfileResult, error) {
	opts = Normalize(opts)
	opts.Annot = c.Annot
	opts.Optimize = c.Optimize

	// The clean and annotated programs share loop IDs, so the same native
	// loop set accelerates both runs.
	setup := func(prog *tir.Program) (*vmsim.VM, error) {
		vm, err := newVM(prog, in, opts.Cfg)
		if err == nil && len(opts.NativeLoops) > 0 {
			_, err = vm.InstallNative(opts.NativeLoops...)
		}
		return vm, err
	}
	clean, err := setup(c.Clean)
	if err != nil {
		return nil, err
	}
	if err := runVM(ctx, clean); err != nil {
		return nil, err
	}
	cleanCycles := clean.Cycles

	vm, err := setup(c.Annotated)
	if err != nil {
		return nil, err
	}
	tracer := core.NewTracer(c.Annotated, opts.Cfg, opts.Tracer)
	vm.Listeners = append(vm.Listeners, tracer)
	vm.Listeners = append(vm.Listeners, extra...)
	var sampler *vmsim.Sampler
	if opts.SamplePeriod > 0 {
		sampler = vmsim.NewSampler(opts.SamplePeriod)
		vm.SetSampler(sampler)
	}
	if err := runVM(ctx, vm); err != nil {
		return nil, err
	}

	analysis := profile.BuildTree(c.Annotated, tracer, vm.Cycles, cleanCycles, opts.Cfg)
	analysis.Select(opts.Select)

	res := &ProfileResult{
		Clean:           c.Clean,
		Annotated:       c.Annotated,
		CleanCycles:     cleanCycles,
		TracedCycles:    vm.Cycles,
		Tracer:          tracer,
		Analysis:        analysis,
		HeapLoads:       vm.NHeapLoads,
		HeapStores:      vm.NHeapStores,
		LocalAnnots:     vm.NLocalAnnot,
		LoopAnnots:      vm.NLoopAnnot,
		ReadStats:       vm.NReadStats,
		AnnotationCount: c.AnnotationCount,
		Opts:            opts,
	}
	if sampler != nil {
		res.Samples = sampler.Profile(c.Annotated)
	}
	if len(opts.NativeLoops) > 0 {
		res.Native = vm.NativeStats()
		res.NativeRejected = vm.NativeRejected()
	}
	return res, nil
}
