// Package experiments regenerates every table and figure of the paper's
// evaluation (section 6) from the reproduction: Tables 1-6 and Figures 6,
// 9, 10 and 11, plus the section 5 software-profiling comparison. Both
// cmd/benchtab and the repository's benchmark harness (bench_test.go) are
// thin wrappers over this package.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"jrpm"
	"jrpm/internal/annotate"
	"jrpm/internal/lang"
	"jrpm/internal/profile"
	"jrpm/internal/softprof"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// BenchResult caches everything the experiments need for one benchmark.
type BenchResult struct {
	Workload *workloads.Workload
	Input    jrpm.Input
	Profile  *jrpm.ProfileResult // optimized annotations (the real system)
	Spec     *jrpm.SpeculateResult

	// Figure 6 instrumentation ladder, cycles per variant.
	CleanCycles       int64
	MarkersCycles     int64 // loop markers only
	LocalsCycles      int64 // + lwl/swl
	FullCycles        int64 // + read-statistics (optimized placement)
	BaseMarkersCycles int64 // unoptimized ladder
	BaseLocalsCycles  int64
	BaseFullCycles    int64

	// Event counts from the clean run, for the software-profiler model.
	Counts softprof.Counts
}

// Suite runs benchmarks once and caches their results. Run and RunAll are
// safe for concurrent use; RunAll fans the independent benchmarks out
// across the machine's cores.
type Suite struct {
	Scale   float64
	Opts    jrpm.Options
	mu      sync.Mutex
	results map[string]*BenchResult
}

// NewSuite creates a suite at the given input scale (1 = paper-sized
// defaults for this reproduction).
func NewSuite(scale float64) *Suite {
	return &Suite{Scale: scale, Opts: jrpm.DefaultOptions(), results: map[string]*BenchResult{}}
}

// Run profiles, selects and speculates one benchmark (cached).
func (s *Suite) Run(name string) (*BenchResult, error) {
	s.mu.Lock()
	if r, ok := s.results[name]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	in := w.NewInput(s.Scale)

	pr, err := jrpm.Profile(w.Source, in, s.Opts)
	if err != nil {
		return nil, fmt.Errorf("%s: profile: %w", name, err)
	}
	spec, err := jrpm.Speculate(in, pr)
	if err != nil {
		return nil, fmt.Errorf("%s: speculate: %w", name, err)
	}

	r := &BenchResult{
		Workload:    w,
		Input:       in,
		Profile:     pr,
		Spec:        spec,
		CleanCycles: pr.CleanCycles,
	}

	// Figure 6 ladder: run the program under each annotation variant with
	// no tracer attached (annotation costs are instruction costs).
	ladder := []struct {
		opts annotate.Options
		dst  *int64
	}{
		{annotate.Options{LoopMarkers: true, HoistReadStats: true}, &r.MarkersCycles},
		{annotate.Options{LoopMarkers: true, Locals: true, OptimizedLocals: true, HoistReadStats: true}, &r.LocalsCycles},
		{annotate.Optimized(), &r.FullCycles},
		{annotate.Options{LoopMarkers: true}, &r.BaseMarkersCycles},
		{annotate.Options{LoopMarkers: true, Locals: true}, &r.BaseLocalsCycles},
		{annotate.Base(), &r.BaseFullCycles},
	}
	for _, step := range ladder {
		cycles, counts, err := runVariant(w.Source, in, step.opts, s.Opts)
		if err != nil {
			return nil, fmt.Errorf("%s: annotation ladder: %w", name, err)
		}
		*step.dst = cycles
		if r.Counts.CleanCycles == 0 {
			// Event mix is annotation-independent; capture once.
			r.Counts = counts
			r.Counts.CleanCycles = pr.CleanCycles
		}
	}
	s.mu.Lock()
	s.results[name] = r
	s.mu.Unlock()
	return r, nil
}

// runVariant compiles, annotates with opts, and runs without a tracer.
func runVariant(src string, in jrpm.Input, aopts annotate.Options, popts jrpm.Options) (int64, softprof.Counts, error) {
	prog, err := lang.Compile(src)
	if err != nil {
		return 0, softprof.Counts{}, err
	}
	if _, err := annotate.Apply(prog, aopts); err != nil {
		return 0, softprof.Counts{}, err
	}
	vm := vmsim.New(prog)
	vm.AnnotCost = popts.Cfg.Tracer.AnnotCost
	vm.ReadStatsCost = popts.Cfg.Tracer.ReadStatsCost
	if err := vm.BindInputs(in.Ints, in.Floats); err != nil {
		return 0, softprof.Counts{}, err
	}
	if err := vm.Run("main"); err != nil {
		return 0, softprof.Counts{}, err
	}
	counts := softprof.Counts{
		HeapLoads:   vm.NHeapLoads,
		HeapStores:  vm.NHeapStores,
		LocalLoads:  vm.NLocalLoads,
		LocalStores: vm.NLocalStores,
		LoopEvents:  vm.NLoopAnnot,
	}
	return vm.Cycles, counts, nil
}

// RunAll runs every benchmark concurrently and returns results in Table 6
// order.
func (s *Suite) RunAll() ([]*BenchResult, error) {
	all := workloads.All()
	out := make([]*BenchResult, len(all))
	errs := make([]error, len(all))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, w := range all {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = s.Run(name)
		}(i, w.Meta.Name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SelectedOverCoverage lists the selected STL nodes with at least the
// given coverage fraction, largest first.
func (r *BenchResult) SelectedOverCoverage(min float64) []SelectedSTL {
	an := r.Profile.Analysis
	var out []SelectedSTL
	for _, n := range an.Selected {
		cov := float64(n.Stats.Cycles) / float64(an.TotalCycles)
		if cov >= min {
			out = append(out, SelectedSTL{Node: n, Coverage: cov})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Coverage > out[j].Coverage })
	return out
}

// SelectedSTL pairs a selected loop node with its coverage fraction.
type SelectedSTL struct {
	Node     *profile.Node
	Coverage float64
}
