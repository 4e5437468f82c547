package trace

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/profile"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// SweepJob is one offline analysis configuration: replay the recorded
// event stream through a fresh comparator-bank model with this machine
// config and these runtime policies, then run selection.
type SweepJob struct {
	Cfg    hydra.Config
	Tracer core.Options
	Select profile.SelectOptions
}

// SweepOutcome is one job's result: the replayed tracer (its Results()
// table carries the raw per-loop counters) and the full profile analysis.
type SweepOutcome struct {
	Job      SweepJob
	Tracer   *core.Tracer
	Analysis *profile.Analysis
	Err      error
}

// Sweep analyzes one recorded trace under every job concurrently. The
// jobs are dealt round-robin to the workers; each worker decodes the
// shared recording once and feeds every one of its jobs' comparator-bank
// models the same batch of events in lockstep — no VM execution, no
// shared mutable state — so N hydra configurations cost one decode per
// worker plus N model runs. prog must be the annotated program the trace
// was recorded from (enforced via the header hash). workers <= 0 uses
// GOMAXPROCS. Once ctx is canceled, every job not yet complete ends with
// the cancellation cause.
//
// This is the record-once / analyze-many primitive behind the
// internal/experiments ablations and the jrpmd trace-analysis job kind.
func Sweep(ctx context.Context, prog *tir.Program, data []byte, jobs []SweepJob, workers int) []SweepOutcome {
	return sweep(ctx, prog, data, jobs, workers, NewBytesReader)
}

// sweep is Sweep with the recording's decoder constructor as a
// parameter, which lets tests count the decodes.
func sweep(ctx context.Context, prog *tir.Program, data []byte, jobs []SweepJob, workers int,
	open func([]byte) (*Reader, error)) []SweepOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]SweepOutcome, len(jobs))
	for i := range jobs {
		out[i].Job = jobs[i]
	}
	want := ProgramHash(prog)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		var share []*SweepOutcome
		for i := w; i < len(out); i += workers {
			share = append(share, &out[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweepShare(ctx, prog, want, data, share, open)
		}()
	}
	wg.Wait()
	return out
}

// sweepShare replays data once through the models of one worker's share
// of the jobs. A panic in one model (a pathological config blowing up
// tracer construction, say) is recovered into that job's Err and drops
// it from the replay, so a single bad configuration cannot poison the
// rest of the sweep.
func sweepShare(ctx context.Context, prog *tir.Program, want [32]byte, data []byte,
	share []*SweepOutcome, open func([]byte) (*Reader, error)) {
	fail := func(outs []*SweepOutcome, err error) {
		for _, o := range outs {
			o.Err = err
		}
	}
	// A failed job carries its error alone, never a half-built result.
	defer func() {
		for _, o := range share {
			if o.Err != nil {
				o.Tracer, o.Analysis = nil, nil
			}
		}
	}()
	if ctx.Err() != nil {
		fail(share, context.Cause(ctx))
		return
	}
	r, err := open(data)
	if err != nil {
		fail(share, err)
		return
	}
	if r.Header().ProgramHash != want {
		fail(share, ErrHashMismatch)
		return
	}
	r.NumLoops = len(prog.Loops)

	live := make([]*SweepOutcome, 0, len(share))
	for _, o := range share {
		if o.Err = guard(func() { o.Tracer = core.NewTracer(prog, o.Job.Cfg, o.Job.Tracer) }); o.Err == nil {
			live = append(live, o)
		}
	}
	evs := make([]vmsim.Event, decodeBatch)
	for len(live) > 0 {
		if ctx.Err() != nil {
			fail(live, context.Cause(ctx))
			return
		}
		n, err := r.ReadEvents(evs)
		next := live[:0]
		for _, o := range live {
			if o.Err = guard(func() { o.Tracer.ConsumeEvents(evs[:n]) }); o.Err == nil {
				next = append(next, o)
			}
		}
		live = next
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(live, err)
			return
		}
	}
	sum, _ := r.Summary()
	for _, o := range live {
		o.Err = guard(func() {
			o.Analysis = profile.BuildTree(prog, o.Tracer, sum.TracedCycles, sum.CleanCycles, o.Job.Cfg)
			o.Analysis.Select(o.Job.Select)
		})
	}
}

// guard runs f, turning a panic into an error.
func guard(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep job panicked: %v", r)
		}
	}()
	f()
	return nil
}
