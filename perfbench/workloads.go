package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"jrpm"
	"jrpm/internal/cluster"
	"jrpm/internal/core"
	"jrpm/internal/corpus"
	"jrpm/internal/hydra"
	"jrpm/internal/jit"
	"jrpm/internal/profile"
	"jrpm/internal/service"
	"jrpm/internal/tir"
	"jrpm/internal/tls"
	"jrpm/internal/trace"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// kernelScale is the dataset scale of every paper kernel in the
// speculate and sweep workloads.
const kernelScale = 1.0

// sweepGrid is the machine grid of one sweep operation: comparator banks
// {1,2,4,8} x heap-store FIFO lines {32,192}.
func sweepGrid() []hydra.Config {
	var grid []hydra.Config
	for _, banks := range []int{1, 2, 4, 8} {
		for _, lines := range []int{32, 192} {
			cfg := hydra.DefaultConfig()
			cfg.Tracer.Banks = banks
			cfg.Tracer.HeapStoreLines = lines
			grid = append(grid, cfg)
		}
	}
	return grid
}

// bench is one workload after set-up. Operation i of a run uses item
// order[i mod len(order)]; seq is the operation's number in the run.
type bench interface {
	// items names each item with a hash of its inputs, in canonical order.
	items() []string
	// op runs one operation through the serving stack and checks its
	// output. A wrongOutput error means the stack answered wrongly.
	op(ctx context.Context, seq, item int) (outcome, error)
	// decompose redoes operation (seq, item) as timed calls into each
	// layer, mirroring what the serving stack does for it.
	decompose(s *stages, seq, item int) (outcome, error)
	close()
}

// outcome is what an operation produced, in the form compared between
// the serving stack and the decomposition.
type outcome struct {
	lat       time.Duration
	clean     int64
	traced    int64
	selected  []int
	predicted float64
	actual    float64
	traceKey  string
	canonical []byte
	view      *service.JobView // nil when no service job ran
}

// sameOutcome reports the first field where the decomposition (d)
// differs from the serving stack's result (r).
func sameOutcome(r, d outcome) error {
	switch {
	case r.clean != d.clean || r.traced != d.traced:
		return fmt.Errorf("cycles %d/%d, decomposed %d/%d", r.clean, r.traced, d.clean, d.traced)
	case !slices.Equal(r.selected, d.selected):
		return fmt.Errorf("selected loops %v, decomposed %v", r.selected, d.selected)
	case r.predicted != d.predicted:
		return fmt.Errorf("predicted speedup %v, decomposed %v", r.predicted, d.predicted)
	case r.actual != d.actual:
		return fmt.Errorf("actual speedup %v, decomposed %v", r.actual, d.actual)
	case r.traceKey != d.traceKey:
		return fmt.Errorf("trace key %s, decomposed %s", r.traceKey, d.traceKey)
	case !bytes.Equal(r.canonical, d.canonical):
		return fmt.Errorf("canonical sweep rows differ (%d vs %d bytes)", len(r.canonical), len(d.canonical))
	}
	return nil
}

// wrongOutput marks an operation whose result failed its check.
type wrongOutput struct{ msg string }

func (w *wrongOutput) Error() string { return "wrong output: " + w.msg }

func wrong(format string, args ...any) error {
	return &wrongOutput{msg: fmt.Sprintf(format, args...)}
}

// jobOutcome turns a finished service job into an outcome.
func jobOutcome(v service.JobView, err error, lat time.Duration) (outcome, error) {
	o := outcome{lat: lat, view: &v}
	if err != nil {
		return o, err
	}
	if v.State != service.StateDone {
		return o, fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
	}
	r := v.Result
	o.clean, o.traced = r.CleanCycles, r.TracedCycles
	o.selected, o.predicted, o.actual = r.SelectedLoops, r.PredictedSpeedup, r.ActualSpeedup
	o.traceKey = r.TraceKey
	return o, nil
}

func submit(ctx context.Context, pool *service.Pool, req service.Request) (outcome, error) {
	t0 := time.Now()
	job, err := pool.Submit(req)
	if err != nil {
		return outcome{}, err
	}
	v, err := job.Wait(ctx)
	return jobOutcome(v, err, time.Since(t0))
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// modelAndAnalyze feeds a captured event stream to a fresh comparator-bank
// model, then builds the loop tree and runs Equation 2 selection.
func modelAndAnalyze(s *stages, prog *tir.Program, evs []vmsim.Event, traced, clean int64, cfg hydra.Config, opts jrpm.Options) (*core.Tracer, *profile.Analysis) {
	var tracer *core.Tracer
	s.model(func() {
		tracer = core.NewTracer(prog, cfg, opts.Tracer)
		tracer.ConsumeEvents(evs)
	})
	s.modelEvents += int64(len(evs))
	var an *profile.Analysis
	s.time(stAnalyze, func() error {
		an = profile.BuildTree(prog, tracer, traced, clean, cfg)
		an.Select(opts.Select)
		return nil
	})
	return tracer, an
}

// ---------------------------------------------------------------------------
// speculate: profile + speculate jobs over the 26 paper kernels, every job
// an artifact-cache hit.

type kernelCase struct {
	w             *workloads.Workload
	clean, traced int64 // refvm oracle
	exp           expectedKernel
}

type speculateBench struct {
	pool *service.Pool
	ks   []kernelCase
	opts jrpm.Options
	sink capture
}

func setupSpeculate(ctx context.Context, exp *expected) (bench, error) {
	opts := jrpm.DefaultOptions()
	all := workloads.All()
	ks := make([]kernelCase, len(all))
	err := forEach(len(all), func(i int) error {
		w := all[i]
		e, ok := exp.Kernels[w.Meta.Name]
		if !ok {
			return fmt.Errorf("expected.json has no entry for kernel %s", w.Meta.Name)
		}
		c, err := jrpm.Compile(w.Source, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Meta.Name, err)
		}
		clean, traced, err := refCycles(c, w.NewInput(kernelScale))
		if err != nil {
			return fmt.Errorf("%s: %w", w.Meta.Name, err)
		}
		ks[i] = kernelCase{w: w, clean: clean, traced: traced, exp: e}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := &speculateBench{pool: service.NewPool(service.Config{Workers: 2}), ks: ks, opts: opts}
	// Fill the artifact cache: one checked job per kernel.
	if err := forEach(len(ks), func(i int) error {
		_, err := b.op(ctx, -1, i)
		return err
	}); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *speculateBench) items() []string {
	out := make([]string, len(b.ks))
	for i, k := range b.ks {
		out[i] = k.w.Meta.Name + " " + sha256Hex([]byte(k.w.Source))
	}
	return out
}

func (b *speculateBench) close() { b.pool.Stop() }

func (b *speculateBench) op(ctx context.Context, _, item int) (outcome, error) {
	k := &b.ks[item]
	o, err := submit(ctx, b.pool, service.Request{Workload: k.w.Meta.Name, Scale: kernelScale, Speculate: true})
	if err != nil {
		return o, err
	}
	switch {
	case o.clean != k.clean || o.traced != k.traced:
		return o, wrong("%s: cycles %d/%d, refvm %d/%d", k.w.Meta.Name, o.clean, o.traced, k.clean, k.traced)
	case !slices.Equal(o.selected, k.exp.Selected):
		return o, wrong("%s: selected %v, expected %v", k.w.Meta.Name, o.selected, k.exp.Selected)
	case o.predicted != k.exp.Predicted || o.actual != k.exp.Actual:
		return o, wrong("%s: predicted/actual %v/%v, expected %v/%v", k.w.Meta.Name, o.predicted, o.actual, k.exp.Predicted, k.exp.Actual)
	}
	return o, nil
}

// decompose mirrors service.Pool.execute for a cache-hit speculate job:
// resolve the workload, look up the artifact, profile (jrpm.Compiled.
// Profile) and speculate (jrpm.SpeculateLoops).
func (b *speculateBench) decompose(s *stages, _, item int) (outcome, error) {
	name := b.ks[item].w.Meta.Name
	var src string
	var in jrpm.Input
	if err := s.time(stResolve, func() error {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		src, in = w.Source, w.NewInput(kernelScale)
		return nil
	}); err != nil {
		return outcome{}, err
	}
	var c *jrpm.Compiled
	if err := s.time(stCache, func() error {
		var ok bool
		if c, ok = b.pool.Cache().Get(service.CacheKey(src, b.opts)); !ok {
			return errors.New("artifact cache miss")
		}
		return nil
	}); err != nil {
		return outcome{}, err
	}
	cfg := b.opts.Cfg
	clean, vm, err := profileRuns(s, c, in, cfg, &b.sink)
	if err != nil {
		return outcome{}, err
	}
	_, an := modelAndAnalyze(s, c.Annotated, b.sink.evs, vm.Cycles, clean, cfg, b.opts)
	selected := an.SelectedLoopIDs()
	if err := s.time(stPlan, func() error {
		_, err := jit.Build(c.Annotated, selected, cfg)
		return err
	}); err != nil {
		return outcome{}, err
	}
	rec := tls.NewRecorder(c.Annotated, selected)
	if err := s.time(stRecord, func() error {
		v, err := newVM(c.Annotated, in, cfg, rec)
		if err != nil {
			return err
		}
		return v.Run("main")
	}); err != nil {
		return outcome{}, err
	}
	var actual float64
	s.time(stSimulate, func() error {
		actual = actualSpeedup(tls.Simulate(rec.Entries, cfg), clean, vm.Cycles)
		return nil
	})
	for _, e := range rec.Entries {
		for _, it := range e.Iters {
			s.accesses += int64(len(it.Acc))
		}
	}
	return outcome{clean: clean, traced: vm.Cycles, selected: selected, predicted: an.PredictedSpeedup(), actual: actual}, nil
}

// actualSpeedup is jrpm.SpeculateLoops' whole-program arithmetic: deflate
// each loop's traced-unit sequential time to clean units and subtract
// what the TLS simulation saved, in loop-id order.
func actualSpeedup(results map[int]*tls.Result, clean, traced int64) float64 {
	scale := 1.0
	if traced > 0 {
		scale = float64(clean) / float64(traced)
	}
	ids := make([]int, 0, len(results))
	for id := range results {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	actual := float64(clean)
	for _, id := range ids {
		r := results[id]
		if r.SeqCycles == 0 {
			continue
		}
		actual -= float64(r.SeqCycles) * scale * (1 - 1/r.Speedup)
	}
	if actual > 0 {
		return float64(clean) / actual
	}
	return 1
}

// ---------------------------------------------------------------------------
// ingest: cold profile + record jobs over the default 500-program corpus.

type corpusCase struct {
	p             *corpus.Program
	in            jrpm.Input
	clean, traced int64 // refvm oracle
	target        int   // target loop id
}

type ingestBench struct {
	pool *service.Pool
	cs   []corpusCase
	opts jrpm.Options

	// The decomposition's own caches, sized like the pool's, so its
	// lookups miss and its inserts cost what the pool's do.
	cache  *service.Cache
	traces *service.TraceCache
	sink   capture
}

// ingestTraceCacheBytes bounds the pool's recorded-trace cache; every
// ingest job records, so the default 256 MiB would only grow the heap.
const ingestTraceCacheBytes = 32 << 20

func setupIngest(ctx context.Context, _ *expected) (bench, error) {
	opts := jrpm.DefaultOptions()
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		return nil, err
	}
	cs := make([]corpusCase, len(progs))
	err = forEach(len(progs), func(i int) error {
		p := progs[i]
		in := p.Input()
		c, err := jrpm.Compile(p.Source, opts)
		if err != nil {
			return fmt.Errorf("corpus program %d: %w", i, err)
		}
		clean, traced, err := refCycles(c, in)
		if err != nil {
			return fmt.Errorf("corpus program %d: %w", i, err)
		}
		target := corpus.TargetLoopID(c.Annotated)
		if target < 0 {
			return fmt.Errorf("corpus program %d: no target loop", i)
		}
		cs[i] = corpusCase{p: p, in: in, clean: clean, traced: traced, target: target}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pool := service.NewPool(service.Config{Workers: 2, TraceCacheBytes: ingestTraceCacheBytes})
	b := &ingestBench{
		pool:   pool,
		cs:     cs,
		opts:   opts,
		cache:  service.NewCache(pool.Config().CacheSize),
		traces: service.NewTraceCache(pool.Config().TraceCacheBytes),
	}
	// Warm the pool: one checked job per corpus program.
	if err := forEach(len(cs), func(i int) error {
		_, err := b.op(ctx, -1-i, i)
		return err
	}); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *ingestBench) items() []string {
	out := make([]string, len(b.cs))
	for i, c := range b.cs {
		out[i] = c.p.SHA256
	}
	return out
}

func (b *ingestBench) close() { b.pool.Stop() }

// source gives operation seq its own program text: a unique trailing
// comment changes the content address, not the program, so every job
// misses the artifact cache.
func (b *ingestBench) source(seq, item int) string {
	return fmt.Sprintf("%s\n// perfbench ingest %d\n", b.cs[item].p.Source, seq)
}

func (b *ingestBench) op(ctx context.Context, seq, item int) (outcome, error) {
	c := &b.cs[item]
	o, err := submit(ctx, b.pool, service.Request{Source: b.source(seq, item), Ints: c.in.Ints, Floats: c.in.Floats, Record: true})
	if err != nil {
		return o, err
	}
	if o.clean != c.clean || o.traced != c.traced {
		return o, wrong("corpus %s: cycles %d/%d, refvm %d/%d", c.p.SHA256[:12], o.clean, o.traced, c.clean, c.traced)
	}
	if o.traceKey == "" {
		return o, wrong("corpus %s: no trace recorded", c.p.SHA256[:12])
	}
	for _, l := range o.view.Result.Loops {
		if l.Loop == c.target {
			if !c.p.Band.Contains(l.EstSpeedup) {
				return o, wrong("corpus %s: target loop estimate %.3f outside oracle band %v", c.p.SHA256[:12], l.EstSpeedup, c.p.Band)
			}
			return o, nil
		}
	}
	return o, wrong("corpus %s: target loop L%d missing from the result", c.p.SHA256[:12], c.target)
}

// decompose mirrors service.Pool.execute for a cold record job: an
// artifact-cache miss, jrpm.Compile, jrpm.Compiled.ProfileRecord, and the
// trace-cache insert.
func (b *ingestBench) decompose(s *stages, seq, item int) (outcome, error) {
	src, in := b.source(seq, item), b.cs[item].in
	var key string
	if err := s.time(stCache, func() error {
		key = service.CacheKey(src, b.opts)
		if _, hit := b.cache.Get(key); hit {
			return errors.New("unexpected artifact cache hit")
		}
		return nil
	}); err != nil {
		return outcome{}, err
	}
	c, err := compileStages(s, src, b.opts)
	if err != nil {
		return outcome{}, err
	}
	s.time(stCache, func() error {
		b.cache.Put(key, c)
		return nil
	})
	cfg := b.opts.Cfg
	clean, vm, err := profileRuns(s, c, in, cfg, &b.sink)
	if err != nil {
		return outcome{}, err
	}
	_, an := modelAndAnalyze(s, c.Annotated, b.sink.evs, vm.Cycles, clean, cfg, b.opts)
	sum := trace.Summary{
		CleanCycles:  clean,
		TracedCycles: vm.Cycles,
		HeapLoads:    vm.NHeapLoads,
		HeapStores:   vm.NHeapStores,
		LocalAnnots:  vm.NLocalAnnot,
		LoopAnnots:   vm.NLoopAnnot,
		ReadStats:    vm.NReadStats,
		Annotations:  int64(c.AnnotationCount),
	}
	var data []byte
	if err := s.time(stEncode, func() error {
		var buf bytes.Buffer
		tw, err := trace.NewWriter(&buf, c.TraceHash())
		if err != nil {
			return err
		}
		tw.ConsumeEvents(b.sink.evs)
		if err := tw.Finish(sum); err != nil {
			return err
		}
		data = buf.Bytes()
		return nil
	}); err != nil {
		return outcome{}, err
	}
	s.traceBytes += int64(len(data))
	var traceKey string
	s.time(stCache, func() error {
		traceKey = b.traces.Put(&service.TraceArtifact{Data: data, Compiled: c, Summary: sum})
		return nil
	})
	return outcome{clean: clean, traced: vm.Cycles, selected: an.SelectedLoopIDs(), predicted: an.PredictedSpeedup(), traceKey: traceKey}, nil
}

// ---------------------------------------------------------------------------
// sweep: replay each kernel's recording under the 8-cell machine grid.

type recording struct {
	name, src string
	data      []byte
	sha       string // expected SHA-256 of the canonical rows
}

type sweepBench struct {
	recs []recording
	opts jrpm.Options
	grid []hydra.Config
	sink capture
}

// sweepWorkers is the replay parallelism of one sweep call. One worker
// keeps the load on one CPU, as the job workloads' single client does.
const sweepWorkers = 1

func setupSweep(ctx context.Context, exp *expected) (bench, error) {
	opts := jrpm.DefaultOptions()
	all := workloads.All()
	recs := make([]recording, len(all))
	err := forEach(len(all), func(i int) error {
		w := all[i]
		e, ok := exp.Kernels[w.Meta.Name]
		if !ok {
			return fmt.Errorf("expected.json has no entry for kernel %s", w.Meta.Name)
		}
		data, err := record(ctx, w, opts)
		if err != nil {
			return err
		}
		recs[i] = recording{name: w.Meta.Name, src: w.Source, data: data, sha: e.SweepSHA256}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := &sweepBench{recs: recs, opts: opts, grid: sweepGrid()}
	// One checked sweep per recording.
	for i := range recs {
		if _, err := b.op(ctx, -1, i); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// record profiles one kernel with its event stream recorded.
func record(ctx context.Context, w *workloads.Workload, opts jrpm.Options) ([]byte, error) {
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Meta.Name, err)
	}
	var buf bytes.Buffer
	if _, err := c.ProfileRecord(ctx, w.NewInput(kernelScale), opts, &buf); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Meta.Name, err)
	}
	return buf.Bytes(), nil
}

func (b *sweepBench) items() []string {
	out := make([]string, len(b.recs))
	for i, r := range b.recs {
		out[i] = r.name + " " + service.TraceKeyOf(r.data)
	}
	return out
}

func (b *sweepBench) close() {}

// op is one call of the path behind `jrpm sweep` and the experiment
// ablations, with the rows serialized the way the cluster compares them.
func (b *sweepBench) op(ctx context.Context, _, item int) (outcome, error) {
	r := &b.recs[item]
	t0 := time.Now()
	rows, err := cluster.Local{Workers: sweepWorkers}.SweepRecording(ctx, r.name, r.src, r.data, b.grid, b.opts)
	if err != nil {
		return outcome{}, err
	}
	canon, err := cluster.Canonical(rows)
	o := outcome{lat: time.Since(t0), canonical: canon}
	if err != nil {
		return o, err
	}
	for _, row := range rows {
		if row.Err != "" {
			return o, fmt.Errorf("%s: %s", r.name, row.Err)
		}
	}
	if got := sha256Hex(canon); got != r.sha {
		return o, wrong("%s: canonical rows sha256 %s, expected %s", r.name, got, r.sha)
	}
	return o, nil
}

// decompose mirrors cluster.Local.SweepRecording on one worker: compile,
// then per machine config decode the recording, replay it into a fresh
// model and select, then encode the rows canonically.
func (b *sweepBench) decompose(s *stages, _, item int) (outcome, error) {
	r := &b.recs[item]
	opts := jrpm.Normalize(b.opts)
	c, err := compileStages(s, r.src, opts)
	if err != nil {
		return outcome{}, err
	}
	var want [32]byte
	s.time(stDecode, func() error {
		want = trace.ProgramHash(c.Annotated)
		return nil
	})
	outs := make([]trace.SweepOutcome, len(b.grid))
	for i, cfg := range b.grid {
		var sum trace.Summary
		if err := s.time(stDecode, func() error {
			rd, err := trace.NewReader(bytes.NewReader(r.data))
			if err != nil {
				return err
			}
			if rd.Header().ProgramHash != want {
				return trace.ErrHashMismatch
			}
			rd.NumLoops = len(c.Annotated.Loops)
			b.sink.reset()
			sum, err = rd.Replay(&b.sink)
			return err
		}); err != nil {
			return outcome{}, err
		}
		s.decodedBytes += int64(len(r.data))
		tracer, an := modelAndAnalyze(s, c.Annotated, b.sink.evs, sum.TracedCycles, sum.CleanCycles, cfg, opts)
		outs[i] = trace.SweepOutcome{Job: trace.SweepJob{Cfg: cfg, Tracer: opts.Tracer, Select: opts.Select}, Tracer: tracer, Analysis: an}
	}
	var canon []byte
	err = s.time(stClusterEncode, func() error {
		var err error
		canon, err = cluster.Canonical(cluster.EncodeOutcomes(outs))
		return err
	})
	return outcome{canonical: canon}, err
}
