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
// Profile covers steps 1–3; Compiled.Run covers all five from one
// execution of the program.
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
// clean program and the annotated program traced by TEST. Both programs
// are read-only once Compile returns — see the tir.Program documentation
// — so a Compiled may be shared freely across goroutines and profiled
// concurrently; each Profile call builds its own VM and Tracer.
type Compiled struct {
	// Clean is the program as compiled (and optimized) before annotation:
	// no instrumentation and no loop table (Clean.Loops is nil). The run
	// stages never execute it; it is the uninstrumented baseline for
	// benchmarks and tests. Annotated.Loops holds the loop table.
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

	// heapBytes is HeapBytes, computed once by Compile.
	heapBytes int64
}

// HeapBytes estimates the heap the artifact holds: its clean and
// annotated programs (tir.Program.HeapBytes). Compile computes it once;
// for a Compiled built by hand it is computed on each call.
func (c *Compiled) HeapBytes() int64 {
	if c.heapBytes != 0 {
		return c.heapBytes
	}
	var n int64
	for _, p := range []*tir.Program{c.Clean, c.Annotated} {
		if p != nil {
			n += p.HeapBytes()
		}
	}
	return n
}

// Compile runs the compile stage (step 1) once: lex, parse, generate TIR
// and optionally run the scalar optimizer, giving Clean; then discover
// loops and insert annotations per opts.Annot into a copy of it, giving
// Annotated. Only opts.Annot and opts.Optimize affect the artifact; the
// remaining fields configure the run stages.
func Compile(src string, opts Options) (*Compiled, error) {
	opts = Normalize(opts)
	clean, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	if opts.Optimize {
		opt.Program(clean)
	}
	annotated := clean.Clone()
	nAnnot, err := annotate.Apply(annotated, opts.Annot)
	if err != nil {
		return nil, fmt.Errorf("annotate: %w", err)
	}
	// Lower the annotated program to the VM's pre-decoded instruction
	// stream now, while this is still the compile stage: every later
	// Profile (and every jrpmd worker sharing this artifact) hits the
	// decode cache. The run stages never execute the clean program.
	vmsim.Predecode(annotated)
	c := &Compiled{
		Clean:           clean,
		Annotated:       annotated,
		AnnotationCount: nAnnot,
		Annot:           opts.Annot,
		Optimize:        opts.Optimize,
	}
	c.heapBytes = c.HeapBytes()
	return c, nil
}

// ProfileResult is the outcome of the profiling phase (steps 1-3).
type ProfileResult struct {
	// Annotated is the program that was traced.
	Annotated *tir.Program
	// CleanCycles is the sequential execution time without tracing;
	// TracedCycles the time with annotation overheads (Figure 6 compares
	// the two); CleanCycles is derived from the traced run, see cleanCycles.
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

// NewVM builds the VM every pipeline stage and experiment runs: prog
// under cfg's annotation costs, with in bound to its globals.
func NewVM(prog *tir.Program, in Input, cfg hydra.Config) (*vmsim.VM, error) {
	vm := vmsim.New(prog)
	vm.AnnotCost = cfg.Tracer.AnnotCost
	vm.ReadStatsCost = cfg.Tracer.ReadStatsCost
	return vm, vm.BindInputs(in.Ints, in.Floats)
}

// cleanCycles derives from a completed run of an annotated program the
// cycles its clean program takes on the same input. Annotation only adds
// instructions: each costs AnnotCost (read-statistics ReadStatsCost), and
// each trampoline annotate splices onto a CFG edge adds its closing Br.
// TestCleanCyclesIdentity holds this to real clean runs.
func cleanCycles(vm *vmsim.VM) int64 {
	return vm.Cycles - vm.AnnotCost*(vm.NLoopAnnot+vm.NLocalAnnot) -
		vm.ReadStatsCost*vm.NReadStats - vm.NTrampolines
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
// pre-compiled artifact: one traced run with the TEST model attached,
// then tree building, Equation 1 estimation and Equation 2 selection.
// The clean baseline cycle count is derived from that run (cleanCycles).
// Each extra listener is attached to the traced run after the TEST
// tracer, so it sees exactly the event stream the model consumed: a
// trace writer records it (ProfileRecord), an analysis folds it.
//
// Only the run-stage fields of opts (Cfg, Tracer, Select) are consulted;
// the compile-stage fields were fixed when c was built. Safe for
// concurrent use on a shared c: every call builds its own VM and Tracer.
func (c *Compiled) Profile(ctx context.Context, in Input, opts Options, extra ...vmsim.Listener) (*ProfileResult, error) {
	opts = Normalize(opts)
	opts.Annot = c.Annot
	opts.Optimize = c.Optimize

	vm, err := NewVM(c.Annotated, in, opts.Cfg)
	defer vm.Release()
	if err != nil {
		return nil, err
	}
	// The model's run-time tables go back to their free list with the
	// VM's heap once the run ends; the analysis reads only its statistics.
	tracer := core.NewTracer(c.Annotated, opts.Cfg, opts.Tracer)
	defer tracer.Release()
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
	clean := cleanCycles(vm)

	analysis := profile.BuildTree(c.Annotated, tracer, vm.Cycles, clean, opts.Cfg)
	analysis.Select(opts.Select)

	res := &ProfileResult{
		Annotated:       c.Annotated,
		CleanCycles:     clean,
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
	return res, nil
}
