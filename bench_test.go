// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its artifact end to end
// (compile -> annotate -> trace -> select -> simulate) and reports the
// headline quantity as a custom metric, so `go test -bench=. -benchmem`
// reproduces the whole evaluation. benchScale shrinks the inputs to keep
// a full sweep fast; `cmd/benchtab` runs the full-size version.
package jrpm_test

import (
	"bytes"
	"context"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"jrpm"
	"jrpm/internal/annotate"
	"jrpm/internal/core"
	"jrpm/internal/corpus"
	"jrpm/internal/experiments"
	"jrpm/internal/hydra"
	"jrpm/internal/lang"
	"jrpm/internal/service"
	"jrpm/internal/tir"
	"jrpm/internal/tls"
	"jrpm/internal/trace"
	"jrpm/internal/vmsim"
	"jrpm/internal/vmsim/refvm"
	"jrpm/internal/workloads"
)

const benchScale = 0.35

// BenchmarkTable1Config regenerates the buffer-limit table.
func BenchmarkTable1Config(b *testing.B) {
	cfg := hydra.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if experiments.Table1(cfg) == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Config regenerates the TLS overhead table.
func BenchmarkTable2Config(b *testing.B) {
	cfg := hydra.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if experiments.Table2(cfg) == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3HuffmanSelection reruns the Equation 2 comparison on the
// Huffman nest and reports both loops' estimated speedups.
func BenchmarkTable3HuffmanSelection(b *testing.B) {
	var d experiments.Table3Data
	for i := 0; i < b.N; i++ {
		var err error
		d, _, err = experiments.Table3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if !d.OuterChosen {
			b.Fatal("Equation 2 did not choose the outer Huffman loop")
		}
	}
	b.ReportMetric(d.OuterSpeedup, "outer-speedup")
	b.ReportMetric(d.InnerSpeedup, "inner-speedup")
}

// BenchmarkTable4Annotations renders the annotating-instruction summary.
func BenchmarkTable4Annotations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table4() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable5Transistors recomputes the transistor budget and reports
// TEST's share of the CMP.
func BenchmarkTable5Transistors(b *testing.B) {
	cfg := hydra.DefaultConfig()
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = hydra.TESTFraction(cfg)
		if frac <= 0 || frac >= 0.01 {
			b.Fatalf("TEST fraction %.4f outside the paper's <1%% claim", frac)
		}
	}
	b.ReportMetric(100*frac, "test-%-of-cmp")
}

// BenchmarkTable6Characteristics runs the full 26-benchmark sweep and
// regenerates the characteristics table.
func BenchmarkTable6Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		rows, _, err := experiments.Table6(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 26 {
			b.Fatalf("%d rows, want 26", len(rows))
		}
	}
}

// BenchmarkFigure6Slowdown measures base vs optimized annotation slowdowns
// across the suite and reports the worst optimized slowdown.
func BenchmarkFigure6Slowdown(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		rows, _, err := experiments.Figure6(s)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.OptTotal > worst {
				worst = r.OptTotal
			}
		}
	}
	b.ReportMetric(100*worst, "worst-opt-slowdown-%")
}

// BenchmarkFigure9Pathological reruns the lost-precision demonstration.
func BenchmarkFigure9Pathological(b *testing.B) {
	var rows []experiments.Figure9Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Figure9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.EstSpeedup, "test-estimate-n16")
	b.ReportMetric(last.IdealSpeedup, "available-n16")
}

// BenchmarkFigure10Coverage regenerates the coverage composition chart.
func BenchmarkFigure10Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		rows, _, err := experiments.Figure10(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 26 {
			b.Fatalf("%d rows, want 26", len(rows))
		}
	}
}

// BenchmarkFigure11PredictedVsActual runs profile + TLS simulation for the
// whole suite and reports the mean |predicted-actual| gap.
func BenchmarkFigure11PredictedVsActual(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		rows, _, err := experiments.Figure11(s)
		if err != nil {
			b.Fatal(err)
		}
		gap = 0
		for _, r := range rows {
			d := r.ActualNorm - r.PredictedNorm
			if d < 0 {
				d = -d
			}
			gap += d
		}
		gap /= float64(len(rows))
	}
	b.ReportMetric(gap, "mean-abs-gap")
}

// BenchmarkSoftwareProfilerSlowdown reproduces the section 5 software
// profiling comparison and reports the mean modeled software slowdown.
func BenchmarkSoftwareProfilerSlowdown(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		rows, _, err := experiments.SoftwareSlowdown(s)
		if err != nil {
			b.Fatal(err)
		}
		mean = 0
		for _, r := range rows {
			mean += r.Software
		}
		mean /= float64(len(rows))
	}
	b.ReportMetric(mean, "sw-slowdown-x")
}

// BenchmarkPipelineHuffman measures the cost of the full Jrpm pipeline on
// the paper's running example.
func BenchmarkPipelineHuffman(b *testing.B) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		b.Fatal(err)
	}
	in := w.NewInput(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jrpm.Run(w.Source, in, jrpm.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracerThroughput measures raw tracer event processing: the
// sequential VM running a hot loop with the full TEST model attached.
func BenchmarkTracerThroughput(b *testing.B) {
	w, err := workloads.ByName("LuFactor")
	if err != nil {
		b.Fatal(err)
	}
	in := w.NewInput(benchScale)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		pr, err := jrpm.Profile(w.Source, in, jrpm.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cycles = pr.TracedCycles
	}
	b.ReportMetric(float64(cycles), "traced-cycles")
}

// BenchmarkOptimizerEffect measures the microJIT scalar optimizer's static
// and dynamic effect across the suite and checks the pipeline's result is
// stable under it.
func BenchmarkOptimizerEffect(b *testing.B) {
	var shrink float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.OptimizerEffect(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		var before, after int
		for _, r := range rows {
			before += r.InstrsBefore
			after += r.InstrsAfter
			if r.InstrsAfter > r.InstrsBefore || r.CyclesAfter > r.CyclesBefore {
				b.Fatalf("%s: optimizer made things worse: %+v", r.Name, r)
			}
		}
		shrink = 100 * (1 - float64(after)/float64(before))
	}
	b.ReportMetric(shrink, "static-shrink-%")
}

// BenchmarkMethodCallReturn reruns the section 4.1 scope-decision
// experiment and reports the worst-case MCR overlap not covered by loops.
func BenchmarkMethodCallReturn(b *testing.B) {
	var worstUncovered float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.MethodCallReturn(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		worstUncovered = 0
		for _, r := range rows {
			if u := r.OverlapFrac * (1 - r.InLoopFrac); u > worstUncovered {
				worstUncovered = u
			}
		}
	}
	b.ReportMetric(100*worstUncovered, "uncovered-mcr-%")
}

// BenchmarkServiceCacheHit compares job latency through the jrpmd worker
// pool with a cold compile stage versus a content-addressed cache hit.
// The cold case defeats the cache by perturbing the source text (trailing
// newlines — same compile cost, different SHA-256), so the delta is
// exactly the lex/parse/codegen/annotate work a hit skips.
func BenchmarkServiceCacheHit(b *testing.B) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		b.Fatal(err)
	}
	in := w.NewInput(benchScale)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	runOne := func(b *testing.B, pool *service.Pool, req service.Request) {
		b.Helper()
		j, err := pool.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		v, err := j.Wait(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if v.State != service.StateDone {
			b.Fatalf("job %s: %s", v.State, v.Error)
		}
	}

	b.Run("cold-compile", func(b *testing.B) {
		pool := service.NewPool(service.Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
		defer pool.Stop()
		for i := 0; i < b.N; i++ {
			req := service.Request{
				Source: w.Source + strings.Repeat("\n", i+1),
				Ints:   in.Ints,
				Floats: in.Floats,
			}
			runOne(b, pool, req)
		}
		if hits := pool.Metrics().CacheHits.Load(); hits != 0 {
			b.Fatalf("cold case hit the cache %d times", hits)
		}
	})

	b.Run("cache-hit", func(b *testing.B) {
		pool := service.NewPool(service.Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
		defer pool.Stop()
		req := service.Request{Source: w.Source, Ints: in.Ints, Floats: in.Floats}
		runOne(b, pool, req) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOne(b, pool, req)
		}
		b.StopTimer()
		if hits := pool.Metrics().CacheHits.Load(); hits != int64(b.N) {
			b.Fatalf("cache_hits=%d, want %d", hits, b.N)
		}
	})
}

// BenchmarkAblations runs the three design-choice ablations end to end.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblateBanks(benchScale, []int{1, 8}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := experiments.AblateHistory(benchScale, []int{8, 192}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := experiments.AblateBins(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// dispatchKernelSrc is a straight-line array-walk kernel: one hot inner
// loop whose body is a single basic block, dominated by the fused
// address, increment and `i < len(a)` superinstructions. The outer loop
// re-arms the inner one so each VM.Run executes ~600k micro-ops.
const dispatchKernelSrc = `
global a: int[];

func main() {
	var s: int = 0;
	var r: int = 0;
	var i: int = 0;
	while (r < 200) {
		i = 0;
		while (i < len(a)) {
			s = s + a[i];
			i = i + 1;
		}
		r = r + 1;
	}
	print(s);
}
`

// BenchmarkVMDispatch isolates the interpreter hot path across the two
// engines: the reference block-at-a-time oracle (refvm) and the
// pre-decoded fast engine (vmsim). The untraced group runs the clean
// Huffman workload with no listeners — pure dispatch; the traced group
// runs the annotated program with the full comparator-bank tracer
// attached, measuring what batched emission buys when every heap access
// emits an event; the kernel group runs the straight-line array walk
// where the fused superinstructions dominate.
func BenchmarkVMDispatch(b *testing.B) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		b.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		b.Fatal(err)
	}
	in := w.NewInput(benchScale)
	ints := in.Ints

	kc, err := jrpm.Compile(dispatchKernelSrc, opts)
	if err != nil {
		b.Fatal(err)
	}
	kints := map[string][]int64{"a": make([]int64, 512)}
	for i := range kints["a"] {
		kints["a"][i] = int64(i*2654435761%251) - 125
	}

	bindAll := func(bind func(string, []int64) error, ints map[string][]int64) {
		names := make([]string, 0, len(ints))
		for name := range ints {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := bind(name, ints[name]); err != nil {
				b.Fatal(err)
			}
		}
	}

	type engine struct {
		name string
		run  func(prog *tir.Program, ints map[string][]int64, traced bool) int64
	}
	engines := []engine{
		{"fast", func(prog *tir.Program, ints map[string][]int64, traced bool) int64 {
			vm := vmsim.New(prog)
			vm.Out = io.Discard
			if traced {
				vm.Listeners = []vmsim.Listener{core.NewTracer(prog, opts.Cfg, core.DefaultOptions())}
			}
			bindAll(vm.BindGlobalInts, ints)
			if err := vm.Run("main"); err != nil {
				b.Fatal(err)
			}
			return vm.Cycles
		}},
		{"ref", func(prog *tir.Program, ints map[string][]int64, traced bool) int64 {
			vm := refvm.New(prog)
			vm.Out = io.Discard
			if traced {
				vm.Listeners = []vmsim.Listener{core.NewTracer(prog, opts.Cfg, core.DefaultOptions())}
			}
			bindAll(vm.BindGlobalInts, ints)
			if err := vm.Run("main"); err != nil {
				b.Fatal(err)
			}
			return vm.Cycles
		}},
	}

	groups := []struct {
		name   string
		prog   *tir.Program
		ints   map[string][]int64
		traced bool
	}{
		{"untraced", c.Clean, ints, false},
		{"traced", c.Annotated, ints, true},
		{"kernel", kc.Clean, kints, false},
	}
	for _, g := range groups {
		for _, eng := range engines {
			g, eng := g, eng
			b.Run(g.name+"/"+eng.name, func(b *testing.B) {
				var cycles int64
				for i := 0; i < b.N; i++ {
					cycles = eng.run(g.prog, g.ints, g.traced)
				}
				b.ReportMetric(float64(cycles)/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e3, "Mcycles/s")
			})
		}
	}
}

// BenchmarkTraceRecordOverhead measures what attaching the trace writer
// costs on top of plain profiling: the `live` and `record` sub-benchmarks
// run the identical pipeline, the latter with the event stream serialized
// to io.Discard. The delta is the recording tax; bytes/op reports the
// encoded trace size per run.
func BenchmarkTraceRecordOverhead(b *testing.B) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		b.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		b.Fatal(err)
	}
	in := w.NewInput(benchScale)

	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Profile(context.Background(), in, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("record", func(b *testing.B) {
		var n countingWriter
		for i := 0; i < b.N; i++ {
			if _, err := c.ProfileRecord(context.Background(), in, opts, &n); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)/float64(b.N), "trace-bytes/op")
	})
}

// countingWriter discards while counting, so the benchmark can report
// encoded trace size without buffering it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkReplayVsLiveProfile compares re-running the VM against
// replaying a recorded trace into a fresh comparator-bank model — the
// speedup that makes multi-configuration sweeps cheap.
func BenchmarkReplayVsLiveProfile(b *testing.B) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		b.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		b.Fatal(err)
	}
	in := w.NewInput(benchScale)
	var buf bytes.Buffer
	if _, err := c.ProfileRecord(context.Background(), in, opts, &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Profile(context.Background(), in, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		// ReadEvents alone, no listener: the decoder's own cost.
		b.SetBytes(int64(len(data)))
		evs := make([]vmsim.Event, 512)
		var events int
		for i := 0; i < b.N; i++ {
			r, err := trace.NewBytesReader(data)
			if err != nil {
				b.Fatal(err)
			}
			for err == nil {
				var n int
				n, err = r.ReadEvents(evs)
				events += n
			}
			if err != io.EOF {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	})
	b.Run("replay", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := c.ReplayProfile(data, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep-8-configs", func(b *testing.B) {
		base := hydra.DefaultConfig()
		var cfgs []hydra.Config
		for _, banks := range []int{1, 2, 4, 8} {
			for _, hist := range []int{32, 192} {
				cfg := base
				cfg.Tracer.Banks = banks
				cfg.Tracer.HeapStoreLines = hist
				cfgs = append(cfgs, cfg)
			}
		}
		for i := 0; i < b.N; i++ {
			for ci, o := range c.SweepTrace(context.Background(), data, cfgs, opts, 0) {
				if o.Err != nil {
					b.Fatalf("config %d: %v", ci, o.Err)
				}
			}
		}
	})
	b.Run("sweep-history", func(b *testing.B) {
		// The FIFO depths of the history ablation (cmd/benchtab) on one
		// worker: one model with one store FIFO per depth.
		var cfgs []hydra.Config
		for _, d := range []int{8, 48, 192, 4096} {
			cfg := hydra.DefaultConfig()
			cfg.Tracer.HeapStoreLines = d
			cfgs = append(cfgs, cfg)
		}
		for i := 0; i < b.N; i++ {
			for ci, o := range c.SweepTrace(context.Background(), data, cfgs, opts, 1) {
				if o.Err != nil {
					b.Fatalf("config %d: %v", ci, o.Err)
				}
			}
		}
	})
}

// BenchmarkSpeculateStages times the two TLS stages of a speculate job
// over all 26 kernels at scale 1, as perfbench's speculate workload runs
// them: `record` is the recording VM run of the selected loops with a
// fresh tls.Recorder, `simulate` the TLS timing simulation of those
// recordings. Run with -benchmem: both stages allocate per arena chunk or
// table doubling, not per iteration.
func BenchmarkSpeculateStages(b *testing.B) {
	type kernel struct {
		pr      *jrpm.ProfileResult
		in      jrpm.Input
		entries []*tls.Entry
	}
	var kernels []kernel
	var accesses int64
	record := func(b *testing.B, k *kernel) *tls.Recorder {
		rec := tls.NewRecorder(k.pr.Annotated, k.pr.Analysis.SelectedLoopIDs())
		vm := vmsim.New(k.pr.Annotated)
		vm.AnnotCost = k.pr.Opts.Cfg.Tracer.AnnotCost
		vm.ReadStatsCost = k.pr.Opts.Cfg.Tracer.ReadStatsCost
		if err := vm.BindInputs(k.in.Ints, k.in.Floats); err != nil {
			b.Fatal(err)
		}
		vm.Listeners = append(vm.Listeners, rec)
		if err := vm.Run("main"); err != nil {
			b.Fatal(err)
		}
		return rec
	}
	for _, w := range workloads.All() {
		opts := jrpm.DefaultOptions()
		c, err := jrpm.Compile(w.Source, opts)
		if err != nil {
			b.Fatal(err)
		}
		k := kernel{in: w.NewInput(1)}
		if k.pr, err = c.Profile(context.Background(), k.in, opts); err != nil {
			b.Fatal(err)
		}
		k.entries = record(b, &k).Entries
		for _, e := range k.entries {
			for _, it := range e.Iters {
				accesses += int64(len(it.Acc))
			}
		}
		kernels = append(kernels, k)
	}

	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range kernels {
				record(b, &kernels[j])
			}
		}
		b.ReportMetric(float64(accesses), "accesses/op")
	})
	b.Run("simulate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range kernels {
				tls.Simulate(k.entries, k.pr.Opts.Cfg)
			}
		}
		b.ReportMetric(float64(accesses), "accesses/op")
	})
}

// BenchmarkCompileCorpus times the compile stage over the 500-program
// default corpus, one program per op, split into its front-end stages:
// `lex` drains a lang.Lexer, `parse` runs lang.Parse (lexing included),
// `gen` type-checks and lowers a parsed file to TIR, `annotate` clones a
// compiled program and annotates the clone as jrpm.Compile does, and
// `compile` is jrpm.Compile end to end. Run with -benchmem: the lexer
// allocates nothing per token.
func BenchmarkCompileCorpus(b *testing.B) {
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	srcs := make([]string, len(progs))
	files := make([]*lang.File, len(progs))
	cleans := make([]*tir.Program, len(progs))
	for i, p := range progs {
		srcs[i] = p.Source
		if files[i], err = lang.Parse(p.Source); err != nil {
			b.Fatal(err)
		}
		if cleans[i], err = lang.Compile(p.Source); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("lex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lx := lang.NewLexer(srcs[i%len(srcs)])
			for {
				t, err := lx.Next()
				if err != nil {
					b.Fatal(err)
				}
				if t.Kind == lang.TokEOF {
					break
				}
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lang.Parse(srcs[i%len(srcs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			checked, err := lang.Check(files[i%len(files)])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := lang.Gen(checked); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("annotate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := annotate.Apply(cleans[i%len(cleans)].Clone(), opts.Annot); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jrpm.Compile(srcs[i%len(srcs)], opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
