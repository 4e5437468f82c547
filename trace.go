package jrpm

import (
	"context"
	"io"

	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/profile"
	"jrpm/internal/trace"
)

// This file is the public face of the internal/trace subsystem: record a
// profiling run's event stream once, then replay it — through the same
// comparator-bank model, under the same or different machine
// configurations — without re-executing the VM. See internal/trace and
// its FORMAT.md, and the README section "Recording and replaying traces".

// TraceHash returns the structural hash of the annotated program, the
// identity a recorded trace is bound to.
func (c *Compiled) TraceHash() [32]byte {
	return trace.ProgramHash(c.Annotated)
}

// ProfileRecord is Profile plus persistent capture: the traced run's
// event stream is serialized to w as it is produced. The returned
// ProfileResult is bit-identical to what Profile would return — the
// trace writer is a passive extra listener on the same run — and the
// recorded trace replays into the same result via ReplayProfile.
func (c *Compiled) ProfileRecord(ctx context.Context, in Input, opts Options, w io.Writer) (*ProfileResult, error) {
	tw, err := trace.NewWriter(w, c.TraceHash())
	if err != nil {
		return nil, err
	}
	pr, err := c.Profile(ctx, in, opts, tw)
	if err != nil {
		return nil, err
	}
	if err := tw.Finish(pr.TraceSummary()); err != nil {
		return nil, err
	}
	return pr, nil
}

// TraceSummary is the trailer a recording of r's traced run ends with:
// pass it to the trace writer's Finish once the run is done.
func (r *ProfileResult) TraceSummary() trace.Summary {
	return trace.Summary{
		CleanCycles:  r.CleanCycles,
		TracedCycles: r.TracedCycles,
		HeapLoads:    r.HeapLoads,
		HeapStores:   r.HeapStores,
		LocalAnnots:  r.LocalAnnots,
		LoopAnnots:   r.LoopAnnots,
		ReadStats:    r.ReadStats,
		Annotations:  int64(r.AnnotationCount),
	}
}

// ReplayProfile reconstructs a ProfileResult from a recorded trace
// without executing the VM: the event stream is replayed into a fresh
// TEST comparator-bank model and the analysis re-run. With the same
// run-stage options this yields bit-identical loop selections and
// speedup estimates to the live profile the trace was recorded from;
// with different options (bank counts, buffer limits, history depths,
// selection thresholds) it answers "what would TEST have concluded on
// that machine" from the same single execution.
//
// The trace must have been recorded from c's annotated program; a
// program-hash mismatch is refused.
func (c *Compiled) ReplayProfile(data []byte, opts Options) (*ProfileResult, error) {
	opts = Normalize(opts)
	opts.Annot = c.Annot
	opts.Optimize = c.Optimize

	r, err := trace.NewBytesReader(data)
	if err != nil {
		return nil, err
	}
	if r.Header().ProgramHash != c.TraceHash() {
		return nil, trace.ErrHashMismatch
	}
	r.NumLoops = len(c.Annotated.Loops)

	tracer := core.NewTracer(c.Annotated, opts.Cfg, opts.Tracer)
	sum, err := r.Replay(tracer)
	tracer.Release()
	if err != nil {
		return nil, err
	}

	analysis := profile.BuildTree(c.Annotated, tracer, sum.TracedCycles, sum.CleanCycles, opts.Cfg)
	analysis.Select(opts.Select)

	return &ProfileResult{
		Annotated:       c.Annotated,
		CleanCycles:     sum.CleanCycles,
		TracedCycles:    sum.TracedCycles,
		Tracer:          tracer,
		Analysis:        analysis,
		HeapLoads:       sum.HeapLoads,
		HeapStores:      sum.HeapStores,
		LocalAnnots:     sum.LocalAnnots,
		LoopAnnots:      sum.LoopAnnots,
		ReadStats:       sum.ReadStats,
		AnnotationCount: int(sum.Annotations),
		Opts:            opts,
	}, nil
}

// SweepTrace analyzes one recorded trace under every configuration
// concurrently (see trace.Sweep): each worker decodes the shared bytes
// once and feeds that single decode to one comparator-bank model per
// store geometry among its configurations, so N configurations cost
// zero additional VM executions and one model pass per geometry
// (workers <= 0 keeps each geometry on one worker). Tracer
// policies and selection thresholds come from opts; each cfgs entry
// supplies the machine under analysis.
func (c *Compiled) SweepTrace(ctx context.Context, data []byte, cfgs []hydra.Config, opts Options, workers int) []trace.SweepOutcome {
	opts = Normalize(opts)
	jobs := make([]trace.SweepJob, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = trace.SweepJob{Cfg: cfg, Tracer: opts.Tracer, Select: opts.Select}
	}
	return trace.Sweep(ctx, c.Annotated, data, jobs, workers)
}
