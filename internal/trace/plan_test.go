package trace_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

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
// no model mixing store geometries. It returns the model count.
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
			key := core.GeometryOf(jobs[m[0]].Cfg)
			for _, i := range m {
				seen[i]++
				if core.GeometryOf(jobs[i].Cfg) != key {
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

// TestSweepPlan: groups stay whole. The perfbench grid makes two model
// passes on one worker, one per worker on two, and two on the default
// worker count (workers <= 0) however many CPUs there are; a 70-config
// geometry group is cut at core.GroupSize; random mixes of geometries
// never share a model, and groups are split only to meet an explicit
// worker count larger than the number of groups.
func TestSweepPlan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	grid := perfbenchGrid()
	if n := checkPlan(t, grid, 1, trace.Plan(grid, 1)); n != 2 {
		t.Errorf("perfbench grid on 1 worker: %d models, want 2", n)
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
		keys := map[core.Geometry]int{}
		for i := range jobs {
			cfg := hydra.DefaultConfig()
			cfg.Tracer.Banks = rng.Intn(8)
			cfg.Tracer.HeapStoreLines = []int{16, 32, 192}[rng.Intn(3)]
			cfg.Buffers.StoreLines = []int{32, 64}[rng.Intn(2)]
			if rng.Intn(4) == 0 {
				cfg.Tracer.LoadLineTS = rng.Intn(3) - 1
			}
			jobs[i].Cfg = cfg
			keys[core.GeometryOf(cfg)]++
		}
		groups := 0
		for _, c := range keys {
			groups += (c + core.GroupSize - 1) / core.GroupSize
		}
		workers := rng.Intn(20)
		want := groups
		if workers > groups {
			want = min(workers, len(jobs))
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
