package trace_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"jrpm"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/trace"
)

// perfbenchGrid is the benchmark's sweep grid: banks {1,2,4,8} x FIFO
// lines {32,192}, in the benchmark's order (the two geometries
// interleaved).
func perfbenchGrid() []trace.SweepJob {
	var jobs []trace.SweepJob
	for _, banks := range []int{1, 2, 4, 8} {
		for _, lines := range []int{32, 192} {
			cfg := hydra.DefaultConfig()
			cfg.Tracer.Banks = banks
			cfg.Tracer.HeapStoreLines = lines
			jobs = append(jobs, trace.SweepJob{Cfg: cfg})
		}
	}
	return jobs
}

// checkPlan asserts that a plan runs every job exactly once, on at most
// workers non-empty workers, with no model over core.GroupSize jobs and
// no model mixing store geometries beyond the FIFO depth. It returns
// the model count.
func checkPlan(t *testing.T, jobs []trace.SweepJob, workers int, p [][][]int) int {
	t.Helper()
	if len(p) > workers {
		t.Fatalf("%d workers planned, at most %d allowed", len(p), workers)
	}
	seen := make([]int, len(jobs))
	models := 0
	for w, share := range p {
		if len(share) == 0 {
			t.Fatalf("worker %d has no jobs", w)
		}
		for _, m := range share {
			models++
			if len(m) == 0 || len(m) > core.GroupSize {
				t.Fatalf("worker %d: model of %d jobs", w, len(m))
			}
			key := core.GeometryOf(jobs[m[0]].Cfg).ModelKey()
			for _, i := range m {
				seen[i]++
				if core.GeometryOf(jobs[i].Cfg).ModelKey() != key {
					t.Fatalf("worker %d: jobs %d and %d share a model across geometries", w, m[0], i)
				}
			}
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("job %d planned %d times", i, n)
		}
	}
	return models
}

// packedModels is the model count of one worker's share of groups
// after fusion: each group joins the first earlier model of its
// depth-free geometry key with room for it, or starts a new one.
func packedModels(jobs []trace.SweepJob, share [][]int) int {
	var keys []core.Geometry
	var sizes []int
	for _, g := range share {
		key := core.GeometryOf(jobs[g[0]].Cfg).ModelKey()
		i := 0
		for i < len(keys) && (keys[i] != key || sizes[i]+len(g) > core.GroupSize) {
			i++
		}
		if i == len(keys) {
			keys, sizes = append(keys, key), append(sizes, 0)
		}
		sizes[i] += len(g)
	}
	return len(keys)
}

// TestSweepPlan: groups stay whole, and a worker's groups of one
// geometry up to the FIFO depth fuse into one model. The perfbench grid
// makes one model pass on one worker, one per worker on two, and two on
// the default worker count (workers <= 0) however many CPUs there are;
// a 70-config geometry group is cut at core.GroupSize; random mixes of
// geometries never share a model beyond the depth, and groups are split
// only to meet an explicit worker count larger than the number of
// groups.
func TestSweepPlan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	grid := perfbenchGrid()
	if n := checkPlan(t, grid, 1, trace.Plan(grid, 1)); n != 1 {
		t.Errorf("perfbench grid on 1 worker: %d models, want 1", n)
	}
	p := trace.Plan(grid, 2)
	checkPlan(t, grid, 2, p)
	for w, share := range p {
		if len(share) != 1 {
			t.Errorf("perfbench grid on 2 workers: worker %d builds %d models, want 1", w, len(share))
		}
	}
	if n := checkPlan(t, grid, 8, trace.Plan(grid, 0)); n != 2 {
		t.Errorf("perfbench grid on the default worker count at GOMAXPROCS 8: %d models, want 2", n)
	}
	if n := checkPlan(t, grid, 8, trace.Plan(grid, 8)); n != 8 {
		t.Errorf("perfbench grid on 8 explicit workers: %d models, want 8", n)
	}

	same := make([]trace.SweepJob, 70)
	for i := range same {
		same[i].Cfg = hydra.DefaultConfig()
		same[i].Cfg.Tracer.Banks = i
	}
	for _, workers := range []int{0, 1, 2} {
		if n := checkPlan(t, same, 8, trace.Plan(same, workers)); n != 2 {
			t.Errorf("70 configs of one geometry on %d workers: %d models, want 2", workers, n)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		jobs := make([]trace.SweepJob, 1+rng.Intn(150))
		cfgs := make([]hydra.Config, len(jobs))
		keys := map[core.Geometry]int{}
		for i := range jobs {
			cfg := hydra.DefaultConfig()
			cfg.Tracer.Banks = rng.Intn(8)
			cfg.Tracer.HeapStoreLines = []int{16, 32, 192}[rng.Intn(3)]
			cfg.Buffers.StoreLines = []int{32, 64}[rng.Intn(2)]
			if rng.Intn(4) == 0 {
				cfg.Tracer.LoadLineTS = rng.Intn(3) - 1
			}
			jobs[i].Cfg, cfgs[i] = cfg, cfg
			keys[core.GeometryOf(cfg)]++
		}
		groups := 0
		for _, c := range keys {
			groups += (c + core.GroupSize - 1) / core.GroupSize
		}
		workers := rng.Intn(20)
		want := min(workers, len(jobs))
		if workers <= groups {
			// Whole groups, dealt in contiguous runs, then fused per worker.
			dealt := core.Groups(cfgs)
			w := workers
			if w <= 0 {
				w = min(runtime.GOMAXPROCS(0), groups)
			}
			want = 0
			for k := 0; k < w; k++ {
				want += packedModels(jobs, dealt[k*groups/w:(k+1)*groups/w])
			}
		}
		if n := checkPlan(t, jobs, max(workers, 8), trace.Plan(jobs, workers)); n != want {
			t.Fatalf("iter %d: %d models on %d workers, want %d (%d groups)", iter, n, workers, want, groups)
		}
	}
}

// TestSweepGeometryBound: a config whose load-line table exceeds
// core.MaxTableLines fails with a typed error before anything is
// allocated, and its neighbors still finish.
func TestSweepGeometryBound(t *testing.T) {
	c, data := recordWorkload(t, "Huffman")
	jobs := defaultJobs(3)
	jobs[1].Cfg.Tracer.LoadLineTS = 1 << 38
	for _, workers := range []int{1, 3} {
		outs := trace.Sweep(context.Background(), c.Annotated, data, jobs, workers)
		var ge *core.GeometryError
		if !errors.As(outs[1].Err, &ge) || ge.Field != "LoadLineTS" || outs[1].Tracer != nil {
			t.Fatalf("workers=%d: oversized config err = %v, want a *core.GeometryError and no tracer", workers, outs[1].Err)
		}
		for _, i := range []int{0, 2} {
			if outs[i].Err != nil || outs[i].Analysis == nil {
				t.Fatalf("workers=%d config %d: %v", workers, i, outs[i].Err)
			}
		}
	}
}

// TestSweepFusesFIFODepths: on one worker, the perfbench grid (two FIFO
// depths of one geometry) builds one model from one decode, and every
// config, extended per-PC bins included, equals a lone replay of it. A
// config whose FIFO is over core.MaxTableLines is never fused: it fails
// with a *core.GeometryError, and its neighbours of the same geometry
// up to the depth equal a sweep without it.
func TestSweepFusesFIFODepths(t *testing.T) {
	c, data := recordWorkload(t, "Huffman")
	opts := jrpm.DefaultOptions()
	opts.Tracer.Extended = true
	jobs := perfbenchGrid()
	for i := range jobs {
		jobs[i].Tracer, jobs[i].Select = opts.Tracer, opts.Select
	}
	if p := trace.Plan(jobs, 1); len(p) != 1 || len(p[0]) != 1 {
		t.Fatalf("perfbench grid on 1 worker: plan %v, want one model", p)
	}
	var opens atomic.Int64
	open := func(b []byte) (*trace.Reader, error) {
		opens.Add(1)
		return trace.NewBytesReader(b)
	}
	clean := trace.SweepWith(context.Background(), c.Annotated, data, jobs, 1, open)
	if n := opens.Load(); n != 1 {
		t.Errorf("recording decoded %d times, want once", n)
	}
	for i, o := range clean {
		if o.Err != nil {
			t.Fatalf("config %d: %v", i, o.Err)
		}
		lone := opts
		lone.Cfg = jobs[i].Cfg
		alone, err := c.ReplayProfile(data, lone)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o.Tracer.Results(), alone.Tracer.Results()) ||
			!reflect.DeepEqual(o.Tracer.ParentEdges(), alone.Tracer.ParentEdges()) {
			t.Errorf("config %d (%d banks, %d lines): fused tracer differs from a lone replay",
				i, jobs[i].Cfg.Tracer.Banks, jobs[i].Cfg.Tracer.HeapStoreLines)
		}
		if got, want := o.Analysis.PredictedSpeedup(), alone.Analysis.PredictedSpeedup(); got != want {
			t.Errorf("config %d: predicted speedup %v, lone replay %v", i, got, want)
		}
	}

	bad := jobs[2]
	bad.Cfg.Tracer.HeapStoreLines = core.MaxTableLines + 1
	mixed := append(append(append([]trace.SweepJob(nil), jobs[:3]...), bad), jobs[3:]...)
	if p := trace.Plan(mixed, 1); len(p[0]) != 2 || len(p[0][0]) != len(jobs) {
		t.Fatalf("perfbench grid and an oversized FIFO on 1 worker: plan %v, want the grid fused and the oversized config alone", p)
	}
	outs := trace.Sweep(context.Background(), c.Annotated, data, mixed, 1)
	var ge *core.GeometryError
	if !errors.As(outs[3].Err, &ge) || ge.Field != "HeapStoreLines" || outs[3].Tracer != nil {
		t.Fatalf("oversized FIFO: err = %v, want a *core.GeometryError on HeapStoreLines and no tracer", outs[3].Err)
	}
	for i, o := range append(outs[:3:3], outs[4:]...) {
		if o.Err != nil {
			t.Fatalf("config %d beside the oversized FIFO: %v", i, o.Err)
		}
		if !reflect.DeepEqual(o.Tracer.Results(), clean[i].Tracer.Results()) {
			t.Errorf("config %d: tracer table perturbed by the oversized neighbour", i)
		}
		if got, want := o.Analysis.PredictedSpeedup(), clean[i].Analysis.PredictedSpeedup(); got != want {
			t.Errorf("config %d: predicted speedup %v beside the oversized neighbour, %v without", i, got, want)
		}
	}
}
