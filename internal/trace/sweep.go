package trace

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/profile"
	"jrpm/internal/tir"
)

// SweepJob is one offline analysis configuration: replay the recorded
// event stream through a fresh comparator-bank model (shared with the
// jobs of the same store geometry) with this machine config and these
// runtime policies, then run selection.
type SweepJob struct {
	Cfg    hydra.Config
	Tracer core.Options
	Select profile.SelectOptions
}

// SweepOutcome is one job's result: the job's view of the replayed
// model (its Results() table carries the raw per-loop counters) and the
// full profile analysis.
type SweepOutcome struct {
	Job      SweepJob
	Tracer   *core.Tracer
	Analysis *profile.Analysis
	Err      error
}

// Sweep analyzes one recorded trace under every job concurrently, with
// no VM execution and no shared mutable state between workers. The
// jobs are grouped by store geometry (core.Groups, chunks of at most
// core.GroupSize) and the groups dealt to the workers; within a
// worker's share, groups that differ only in store FIFO depth fuse into
// one core.Group (see plan). One comparator-bank pass serves all of a
// model's jobs. Each worker decodes the shared recording once and feeds
// the batches to its models, so N hydra configurations cost one decode
// per worker plus one model pass per model. workers <= 0 runs one
// worker per group, at most GOMAXPROCS; an explicit count is met,
// splitting groups if there are fewer groups than workers (and at most
// one worker per job). prog
// must be the annotated program the trace was recorded from (enforced
// via the header hash). A job whose store tables exceed
// core.MaxTableLines fails with a *core.GeometryError before anything
// is allocated. Once ctx is canceled, every job not yet complete ends
// with the cancellation cause.
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
	out := make([]SweepOutcome, len(jobs))
	for i := range jobs {
		out[i].Job = jobs[i]
	}
	want := ProgramHash(prog)

	var wg sync.WaitGroup
	for _, share := range plan(jobs, workers) {
		groups := make([][]*SweepOutcome, len(share))
		for m, idx := range share {
			for _, i := range idx {
				groups[m] = append(groups[m], &out[i])
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweepShare(ctx, prog, want, data, groups, open)
		}()
	}
	wg.Wait()
	return out
}

// plan groups the jobs (core.Groups) and deals the groups to the
// workers: result[w][m] lists the job indices that worker w runs
// through its m-th model. Whole groups are dealt in contiguous runs;
// only when workers asks for more workers than there are groups is the
// largest group halved until each worker has one. Then each worker's
// groups are fused by fuse, so a worker holding several FIFO depths of
// one geometry makes one model pass for them.
func plan(jobs []SweepJob, workers int) [][][]int {
	cfgs := make([]hydra.Config, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.Cfg
	}
	groups := core.Groups(cfgs)
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), len(groups))
	}
	workers = min(workers, len(jobs))
	for len(groups) < workers {
		m := 0
		for i := range groups {
			if len(groups[i]) > len(groups[m]) {
				m = i
			}
		}
		half := len(groups[m]) / 2
		groups = slices.Insert(groups, m+1, groups[m][half:])
		groups[m] = groups[m][:half]
	}
	shares := make([][][]int, workers)
	for w := range shares {
		shares[w] = fuse(cfgs, groups[w*len(groups)/workers:(w+1)*len(groups)/workers])
	}
	return shares
}

// fuse merges the groups of one worker's share whose geometries differ
// only in FIFO depth (equal core.Geometry.ModelKey): each group, whole
// and in order, joins the first model of its key with room for it
// within core.GroupSize jobs, or starts a new one. A fused model costs
// one pass over the shared state plus one FIFO per depth, never more
// than the passes it replaces. A group that fails core.CheckGeometry is
// never fused, so it fails alone.
func fuse(cfgs []hydra.Config, groups [][]int) [][]int {
	if len(groups) < 2 {
		return groups
	}
	models := make([][]int, 0, len(groups))
	keys := make([]core.Geometry, 0, len(groups))
	fusable := make([]bool, 0, len(groups)) // the model may take more groups
	for _, g := range groups {
		key := core.GeometryOf(cfgs[g[0]]).ModelKey()
		ok := core.CheckGeometry(cfgs[g[0]]) == nil
		m := -1
		for i := range models {
			if ok && fusable[i] && keys[i] == key && len(models[i])+len(g) <= core.GroupSize {
				m = i
				break
			}
		}
		if m < 0 {
			models, keys, fusable = append(models, slices.Clip(g)), append(keys, key), append(fusable, ok)
			continue
		}
		models[m] = append(models[m], g...)
	}
	return models
}

// sweepShare replays data once through the groups of one worker's
// share of the jobs, groups[m] being the jobs that share the m-th
// core.Group. A geometry error, or a panic while building or feeding a
// group (a pathological geometry blowing up table construction, say),
// fails that group's jobs only and drops the group from the replay, so
// a bad configuration cannot poison the rest of the sweep.
func sweepShare(ctx context.Context, prog *tir.Program, want [32]byte, data []byte,
	groups [][]*SweepOutcome, open func([]byte) (*Reader, error)) {
	type model struct {
		g    *core.Group
		outs []*SweepOutcome
	}
	fail := func(err error, ms ...model) {
		for _, m := range ms {
			for _, o := range m.outs {
				o.Err = err
			}
		}
	}
	all := make([]model, len(groups))
	for m, outs := range groups {
		all[m].outs = outs
	}
	// A failed job carries its error alone, never a half-built result.
	defer func() {
		for _, m := range all {
			for _, o := range m.outs {
				if o.Err != nil {
					o.Tracer, o.Analysis = nil, nil
				}
			}
		}
	}()
	if ctx.Err() != nil {
		fail(context.Cause(ctx), all...)
		return
	}
	r, err := open(data)
	if err != nil {
		fail(err, all...)
		return
	}
	if r.Header().ProgramHash != want {
		fail(ErrHashMismatch, all...)
		return
	}
	r.NumLoops = len(prog.Loops)

	live := make([]model, 0, len(all))
	for _, m := range all {
		cfgs := make([]hydra.Config, len(m.outs))
		opts := make([]core.Options, len(m.outs))
		for i, o := range m.outs {
			cfgs[i], opts[i] = o.Job.Cfg, o.Job.Tracer
		}
		if err := guard(func() (err error) { m.g, err = core.NewGroup(prog, cfgs, opts); return err }); err != nil {
			fail(err, m)
			continue
		}
		for i, o := range m.outs {
			o.Tracer = m.g.Tracer(i)
		}
		live = append(live, m)
	}
	evs := batches.Get()
	defer batches.Put(evs)
	for len(live) > 0 {
		if ctx.Err() != nil {
			fail(context.Cause(ctx), live...)
			return
		}
		n, err := r.ReadEvents(evs[:])
		next := live[:0]
		for _, m := range live {
			if err := guard(func() error { m.g.ConsumeEvents(evs[:n]); return nil }); err != nil {
				fail(err, m)
				continue
			}
			next = append(next, m)
		}
		live = next
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(err, live...)
			return
		}
	}
	sum, _ := r.Summary()
	for _, m := range live {
		m.g.Release()
		for _, o := range m.outs {
			o.Err = guard(func() error {
				o.Analysis = profile.BuildTree(prog, o.Tracer, sum.TracedCycles, sum.CleanCycles, o.Job.Cfg)
				o.Analysis.Select(o.Job.Select)
				return nil
			})
		}
	}
}

// guard runs f, turning a panic into an error.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep job panicked: %v", r)
		}
	}()
	return f()
}
