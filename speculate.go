package jrpm

import (
	"context"
	"sort"

	"jrpm/internal/jit"
	"jrpm/internal/tls"
)

// SpeculateResult is the outcome of steps 4-5 of the pipeline: running the
// selected decompositions speculatively on the simulated Hydra CMP.
type SpeculateResult struct {
	Profile *ProfileResult
	Plan    *jit.Plan
	// Loops maps each selected loop to its TLS simulation outcome.
	Loops map[int]*tls.Result
	// ActualCycles is the whole-program execution time with the selected
	// STLs running speculatively, in clean sequential cycle units; the
	// Figure 11 "Actual" series is ActualCycles / CleanCycles.
	ActualCycles  float64
	ActualSpeedup float64
	// RecordRuns counts the VM executions spent recording the selected
	// loops' iterations: 0 when Compiled.Run's event log fed the
	// recorder, 1 when the annotated program ran again.
	RecordRuns int
}

// Speculate recompiles the loops selected by Profile and executes them
// speculatively: it runs the annotated program once more to record
// per-iteration traces of the selected loops, then runs the trace-driven
// TLS timing simulation of the 4-CPU Hydra. Compiled.Run gives the same
// result from one VM execution.
func Speculate(in Input, pr *ProfileResult) (*SpeculateResult, error) {
	return SpeculateContext(context.Background(), in, pr)
}

// SpeculateContext is Speculate under a context: canceling ctx interrupts
// the recording run. Safe for concurrent use across jobs sharing pr's
// programs — the recorder, VM and simulation state are all per-call
// (pooled scratch belongs to one call at a time).
func SpeculateContext(ctx context.Context, in Input, pr *ProfileResult) (*SpeculateResult, error) {
	return SpeculateLoops(ctx, in, pr, pr.Analysis.SelectedLoopIDs())
}

// SpeculateLoops is SpeculateContext over an explicit decomposition set
// instead of the Equation 2 selection: the given loops are recompiled and
// executed speculatively regardless of what the estimator chose. Every
// loop must have passed the scalar screen (jit.Build rejects the set
// otherwise). This is the entry point for adaptive callers — a session
// that promotes and demotes loops over time owns its own speculative set,
// which drifts away from the per-epoch Equation 2 answer. It always runs
// the VM to record the loops (RecordRuns is 1).
func SpeculateLoops(ctx context.Context, in Input, pr *ProfileResult, selected []int) (*SpeculateResult, error) {
	return speculateLogged(ctx, in, pr, selected, nil)
}

// Run profiles and speculates with one VM execution: the traced run's
// event stream is kept in a pooled, bounded in-memory log, and after
// Equation 2 selection the log feeds the TLS recorder in place of a
// recording run. The result is bit-identical to Profile followed by
// SpeculateContext. A run whose stream outgrows the log's bound (about
// 64 MB of events) falls back to a recording run, and RecordRuns says
// which path was taken. Safe for concurrent use on a shared c.
func (c *Compiled) Run(ctx context.Context, in Input, opts Options) (*SpeculateResult, error) {
	return c.run(ctx, in, opts, newEventLog(maxLogEvents))
}

func (c *Compiled) run(ctx context.Context, in Input, opts Options, log *eventLog) (*SpeculateResult, error) {
	defer log.release()
	pr, err := c.profileWith(ctx, in, opts, log)
	if err != nil {
		return nil, err
	}
	return speculateLogged(ctx, in, pr, pr.Analysis.SelectedLoopIDs(), log)
}

// speculateLogged is the one recording path: the selected loops' traces
// come from log when it holds pr's whole traced run, and from a fresh
// run of the annotated program otherwise (log nil or over its bound).
// Both deliver the same events in the same order — same program, input
// and annotation costs, and every listener is passive — so the recorder
// captures the same entries either way.
func speculateLogged(ctx context.Context, in Input, pr *ProfileResult, selected []int, log *eventLog) (*SpeculateResult, error) {
	plan, err := jit.Build(pr.Annotated, selected, pr.Opts.Cfg)
	if err != nil {
		return nil, err
	}

	rec := tls.NewRecorder(pr.Annotated, selected)
	defer rec.Release() // after speculateEntries has simulated its entries
	runs := 0
	if log.complete() {
		if ctx != nil && ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		log.replay(rec)
	} else {
		vm, err := NewVM(pr.Annotated, in, pr.Opts.Cfg)
		if err != nil {
			return nil, err
		}
		vm.Listeners = append(vm.Listeners, rec)
		if err := runVM(ctx, vm); err != nil {
			return nil, err
		}
		runs = 1
	}
	res := speculateEntries(pr, plan, rec.Entries)
	res.RecordRuns = runs
	return res, nil
}

// speculateEntries runs the TLS timing simulation over recorded
// per-iteration traces of the selected loops and derives the
// whole-program time.
func speculateEntries(pr *ProfileResult, plan *jit.Plan, entries []*tls.Entry) *SpeculateResult {
	results := tls.Simulate(entries, pr.Opts.Cfg)

	// Program-level time: the recording run shares the annotated
	// program's timing, so per-loop sequential times are in traced units;
	// deflate to clean units with the profiling run's scale factor.
	scale := 1.0
	if pr.TracedCycles > 0 {
		scale = float64(pr.CleanCycles) / float64(pr.TracedCycles)
	}
	loopIDs := make([]int, 0, len(results))
	for id := range results {
		loopIDs = append(loopIDs, id)
	}
	sort.Ints(loopIDs) // deterministic float accumulation order
	actual := float64(pr.CleanCycles)
	for _, id := range loopIDs {
		r := results[id]
		if r.SeqCycles == 0 {
			continue
		}
		seqClean := float64(r.SeqCycles) * scale
		actual -= seqClean * (1 - 1/r.Speedup)
	}

	res := &SpeculateResult{
		Profile:      pr,
		Plan:         plan,
		Loops:        results,
		ActualCycles: actual,
	}
	if actual > 0 {
		res.ActualSpeedup = float64(pr.CleanCycles) / actual
	} else {
		res.ActualSpeedup = 1
	}
	return res
}

// Run executes the complete Jrpm pipeline — profile, select, recompile,
// speculate — on one program: Compile, then Compiled.Run, so the program
// executes once.
func Run(src string, in Input, opts Options) (*SpeculateResult, error) {
	c, err := Compile(src, opts)
	if err != nil {
		return nil, err
	}
	return c.Run(context.Background(), in, opts)
}
