// Command perfbench is the repository's benchmark. It drives the
// profiling pipeline through its real serving paths under one of three
// workloads — speculate, ingest, sweep — checks every operation's output,
// and prints its metrics by name and unit, the last line being one JSON
// object. With --trace 0 it reports the end-to-end metrics; with --trace
// 1 it reports per-layer metrics from public counters plus a traced pass
// that redoes each operation as timed calls into the layers. See
// README.md for the workloads, the metrics and the layer map.
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jrpm"
	"jrpm/internal/cluster"
	"jrpm/internal/telemetry"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

//go:embed expected.json
var expectedJSON []byte

// expected holds the committed per-kernel outputs the speculate and
// sweep workloads check against (regenerate with --regen-expected).
type expected struct {
	Kernels map[string]expectedKernel `json:"kernels"`
}

type expectedKernel struct {
	Selected    []int   `json:"selected_loops"`
	Predicted   float64 `json:"predicted_speedup"`
	Actual      float64 `json:"actual_speedup"`
	SweepSHA256 string  `json:"sweep_canonical_sha256"`
}

type workloadSpec struct {
	cells int // (program, machine config) cells analyzed per operation
	setup func(context.Context, *expected) (bench, error)
}

var workloadSpecs = map[string]workloadSpec{
	"speculate": {cells: 1, setup: setupSpeculate},
	"ingest":    {cells: 1, setup: setupIngest},
	"sweep":     {cells: len(sweepGrid()), setup: setupSweep},
}

// setupReps is how many times a run sets up its workload; setup_s is the
// median.
const setupReps = 5

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "speculate, ingest or sweep")
	seed := flag.Uint64("seed", 1, "permutes the order of operations; expected results do not depend on it")
	seconds := flag.Float64("seconds", 10, "measurement time")
	traceMode := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	regen := flag.String("regen-expected", "", "recompute the expected kernel outputs into this file and exit")
	flag.Parse()

	ctx := context.Background()
	if *regen != "" {
		if err := regenExpected(ctx, *regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	spec, ok := workloadSpecs[*workload]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload speculate|ingest|sweep --seed N --seconds S --trace 0|1")
		return 2
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: expected.json:", err)
		return 1
	}

	var b bench
	var setupTimes []float64
	for range setupReps {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = spec.setup(ctx, &exp); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *workload, err)
			return 1
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer b.close()

	items := b.items()
	order := permute(len(items), *seed)
	fmt.Printf("workload %s  seed %d  GOMAXPROCS %d  set-ups %.3f s\n",
		*workload, *seed, runtime.GOMAXPROCS(0), setupTimes)
	fmt.Printf("fingerprint %s seed=%d items=%d %s\n", *workload, *seed, len(items), fingerprint(items, order))

	dur := time.Duration(*seconds * float64(time.Second))
	var ms []metric
	var attempted, failed int
	if *traceMode == 0 {
		lr := closedLoop(ctx, b, dur, order)
		lr.report("measured")
		ms = endToEnd(lr, spec, median(setupTimes))
		attempted, failed = lr.ops, lr.failed+lr.wrong
	} else {
		lr := closedLoop(ctx, b, dur/2, order)
		lr.report("counted")
		tr := tracedLoop(ctx, b, dur/2, order, lr.ops, *workload, items)
		tr.report("traced")
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := writeSpans(path, *workload, *seed, tr.col); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
		ms = perLayer(lr, tr)
		attempted, failed = lr.ops+tr.ops, lr.failed+lr.wrong+tr.failed+tr.wrong
	}
	for _, m := range ms {
		fmt.Printf("  %-26s %14.6g %s\n", m.name, m.value, m.unit)
	}
	return printResult(attempted, failed, ms)
}

// permute returns a seeded permutation of 0..n-1 (xorshift64*-driven
// Fisher-Yates, the generator the repository's load harness uses).
func permute(n int, seed uint64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	s := seed*0x9e3779b97f4a7c15 + 1
	for i := n - 1; i > 0; i-- {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		j := int((s * 0x2545f4914f6cdd1d) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// fingerprint hashes the operation cycle — each item's name and input
// hash, in the seeded order — so two runs can prove they offered
// identical inputs.
func fingerprint(items []string, order []int) string {
	h := sha256.New()
	for _, i := range order {
		io.WriteString(h, items[i])
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// forEach runs fn(0..n-1) on GOMAXPROCS goroutines and returns the
// errors joined.
func forEach(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[w] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ---------------------------------------------------------------------------
// Process counters

type counters struct {
	cpu        time.Duration // user + system CPU of the process
	allocBytes uint64        // Go heap bytes allocated
	allocObjs  uint64        // Go heap objects allocated
	gcCPU      float64       // estimated GC CPU seconds
	vmRuns     int64         // vmsim.VM.Run calls
}

var counterSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds"}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters() counters {
	s := make([]metrics.Sample, len(counterSamples))
	for i, name := range counterSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return counters{
		cpu:        processCPU(),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		vmRuns:     vmsim.RunCount(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		cpu:        c.cpu - o.cpu,
		allocBytes: c.allocBytes - o.allocBytes,
		allocObjs:  c.allocObjs - o.allocObjs,
		gcCPU:      c.gcCPU - o.gcCPU,
		vmRuns:     c.vmRuns - o.vmRuns,
	}
}

// ---------------------------------------------------------------------------
// Untraced closed loop

type failures struct {
	failed, wrong int
	first         error
}

func (f *failures) add(err error) {
	var w *wrongOutput
	if errors.As(err, &w) {
		f.wrong++
	} else {
		f.failed++
	}
	if f.first == nil {
		f.first = err
	}
}

type loopResult struct {
	failures
	ops   int
	lats  []time.Duration
	wall  time.Duration
	delta counters

	// Service job views (speculate and ingest only).
	jobs, cacheHits    int
	queueWaitMs, runMs float64
}

func (r *loopResult) record(o outcome, err error) {
	r.ops++
	r.lats = append(r.lats, o.lat)
	if err != nil {
		r.add(err)
	}
	if v := o.view; v != nil {
		r.jobs++
		r.queueWaitMs += v.QueueWaitMs
		r.runMs += v.RunMs
		if v.Result != nil && v.Result.CacheHit {
			r.cacheHits++
		}
	}
}

func (r *loopResult) report(what string) {
	fmt.Printf("%s %d ops in %.3f s, fail_ratio %g (%d failed, %d wrong)\n",
		what, r.ops, r.wall.Seconds(), ratio(float64(r.failed+r.wrong), float64(r.ops)), r.failed, r.wrong)
	if r.first != nil {
		fmt.Println("  first failure:", r.first)
	}
}

// closedLoop runs one client that issues its next operation when the
// previous one completes, until dur has passed. One client keeps one CPU
// busy with operations; on a 2-vCPU VM, two clients made runs a minute
// apart differ several times more (see README.md).
func closedLoop(ctx context.Context, b bench, dur time.Duration, order []int) loopResult {
	var r loopResult
	before := readCounters()
	start := time.Now()
	for seq := 0; time.Since(start) < dur; seq++ {
		o, err := b.op(ctx, seq, order[seq%len(order)])
		r.record(o, err)
	}
	r.wall = time.Since(start)
	r.delta = readCounters().sub(before)
	return r
}

// ---------------------------------------------------------------------------
// Traced pass

type tracedResult struct {
	failures
	ops     int
	tot     stages // summed over successful operations
	wall    time.Duration
	realCPU time.Duration // serving-stack operations
	decCPU  time.Duration // decomposed operations
	col     *telemetry.Collector
}

func (r *tracedResult) report(what string) {
	fmt.Printf("%s %d ops, fail_ratio %g (%d failed, %d wrong or divergent)\n",
		what, r.ops, ratio(float64(r.failed+r.wrong), float64(r.ops)), r.failed, r.wrong)
	if r.first != nil {
		fmt.Println("  first failure:", r.first)
	}
}

// spanCap bounds the span ring; past it the oldest spans are overwritten
// and the spans file reports how many were dropped.
const spanCap = 1 << 16

// tracedLoop runs one client. Each operation runs through the serving
// stack, then again as a decomposition into layer calls under a
// "bench.op" span; the two results must agree exactly.
func tracedLoop(ctx context.Context, b bench, dur time.Duration, order []int, firstSeq int, workload string, items []string) tracedResult {
	r := tracedResult{col: telemetry.NewCollector(spanCap)}
	tctx := telemetry.WithTracer(ctx, telemetry.NewTracer(r.col))
	start := time.Now()
	for seq := firstSeq; time.Since(start) < dur; seq++ {
		item := order[seq%len(order)]
		r.ops++
		c0 := processCPU()
		want, err := b.op(ctx, seq, item)
		r.realCPU += processCPU() - c0
		if err != nil {
			r.add(err)
			continue
		}
		octx, sp := telemetry.StartSpan(tctx, "bench.op")
		sp.SetAttr("workload", workload)
		sp.SetAttr("item", items[item])
		sp.SetInt("seq", int64(seq))
		s := &stages{ctx: octx}
		c0 = processCPU()
		t0 := time.Now()
		got, err := b.decompose(s, seq, item)
		wall := time.Since(t0)
		r.decCPU += processCPU() - c0
		sp.Fail(err)
		sp.End()
		if err != nil {
			r.add(fmt.Errorf("decomposed op %d: %w", seq, err))
			continue
		}
		if err := sameOutcome(want, got); err != nil {
			r.add(wrong("decomposed op %d (%s) diverges: %v", seq, items[item], err))
			continue
		}
		r.tot.add(s)
		r.wall += wall
	}
	return r
}

func (s *stages) add(o *stages) {
	for i := range s.ns {
		s.ns[i] += o.ns[i]
	}
	s.tirInstrs += o.tirInstrs
	s.annotations += o.annotations
	s.vmCycles += o.vmCycles
	s.events += o.events
	s.modelEvents += o.modelEvents
	s.modelAllocs += o.modelAllocs
	s.accesses += o.accesses
	s.traceBytes += o.traceBytes
	s.decodedBytes += o.decodedBytes
	s.pauseNs += o.pauseNs
}

func writeSpans(path, workload string, seed uint64, col *telemetry.Collector) error {
	data, err := json.Marshal(struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Dropped  int64                `json:"dropped"`
		Spans    []telemetry.SpanData `json:"spans"`
	}{workload, seed, col.Dropped(), col.Snapshot("")})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---------------------------------------------------------------------------
// Metrics

type metric struct {
	name  string
	unit  string
	value float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileMs is the nearest-rank percentile of the latencies, in ms.
func percentileMs(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := slices.Clone(lats)
	slices.Sort(s)
	i := int(float64(len(s))*p+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / 1e6
}

// endToEnd reports whole-loop rates and per-operation costs, and latency
// percentiles over every operation.
func endToEnd(r loopResult, spec workloadSpec, setupS float64) []metric {
	ops, wall := float64(r.ops), r.wall.Seconds()
	return []metric{
		{"jobs_per_s", "1/s", ratio(ops, wall)},
		{"job_p50_ms", "ms", percentileMs(r.lats, 0.5)},
		{"job_p90_ms", "ms", percentileMs(r.lats, 0.9)},
		{"cells_per_s", "1/s", ratio(ops*float64(spec.cells), wall)},
		{"cpu_ms_per_op", "ms", ratio(float64(r.delta.cpu)/1e6, ops)},
		{"alloc_mb_per_op", "MB", ratio(float64(r.delta.allocBytes)/1e6, ops)},
		{"allocs_per_op", "count", ratio(float64(r.delta.allocObjs), ops)},
		{"setup_s", "s", setupS},
	}
}

func perLayer(r loopResult, t tracedResult) []metric {
	n := float64(t.ops - t.failed - t.wrong)
	s := &t.tot
	ms := func(st stage) float64 { return ratio(float64(s.ns[st])/1e6, n) }
	perOp := func(v int64) float64 { return ratio(float64(v), n) }
	jobs := float64(r.jobs)
	vmNs := float64(s.ns[stCleanRun] + s.ns[stAnnotatedRun])
	return []metric{
		{"service.queue_wait_ms", "ms", ratio(r.queueWaitMs, jobs)},
		{"service.run_ms", "ms", ratio(r.runMs, jobs)},
		{"service.cache_hit_ratio", "ratio", ratio(float64(r.cacheHits), jobs)},
		{"lang.compile_ms", "ms", ms(stCompile)},
		{"lang.tir_instrs", "count", perOp(s.tirInstrs)},
		{"annotate.apply_ms", "ms", ms(stAnnotate)},
		{"annotate.annotations", "count", perOp(s.annotations)},
		{"vmsim.predecode_ms", "ms", ms(stPredecode)},
		{"vmsim.clean_run_ms", "ms", ms(stCleanRun)},
		{"vmsim.annotated_run_ms", "ms", ms(stAnnotatedRun)},
		{"vmsim.mcycles_per_s", "Mcycles/s", ratio(float64(s.vmCycles)*1e3, vmNs)},
		{"vmsim.events_per_op", "count", perOp(s.events)},
		{"vmsim.runs_per_op", "count", ratio(float64(r.delta.vmRuns), float64(r.ops))},
		{"core.model_ms", "ms", ms(stModel)},
		{"core.ns_per_event", "ns", ratio(float64(s.ns[stModel]), float64(s.modelEvents))},
		{"core.allocs_per_op", "count", perOp(int64(s.modelAllocs))},
		{"profile.analyze_ms", "ms", ms(stAnalyze)},
		{"jit.plan_ms", "ms", ms(stPlan)},
		{"tls.record_ms", "ms", ms(stRecord)},
		{"tls.simulate_ms", "ms", ms(stSimulate)},
		{"tls.accesses_per_op", "count", perOp(s.accesses)},
		{"trace.encode_ms", "ms", ms(stEncode)},
		{"trace.bytes_per_op", "bytes", perOp(s.traceBytes)},
		{"trace.decode_ms", "ms", ms(stDecode)},
		{"trace.decode_mb_per_s", "MB/s", ratio(float64(s.decodedBytes)*1e3, float64(s.ns[stDecode]))},
		{"cluster.encode_ms", "ms", ms(stClusterEncode)},
		{"runtime.gc_cpu_share", "ratio", ratio(r.delta.gcCPU, r.delta.cpu.Seconds())},
		{"bench.attributed_share", "ratio", ratio(float64(s.total()), float64(int64(t.wall)-s.pauseNs))},
		{"bench.trace_overhead", "ratio", ratio(float64(t.decCPU), float64(t.realCPU))},
	}
}

// printResult prints the result line and returns the exit code: 0 only
// when every operation succeeded with the expected output.
func printResult(attempted, failed int, ms []metric) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Expected outputs

// regenExpected recomputes every kernel's selection, predicted and actual
// speedups and the SHA-256 of its canonical sweep rows through the
// library API, and writes them to path.
func regenExpected(ctx context.Context, path string) error {
	opts := jrpm.DefaultOptions()
	out := expected{Kernels: map[string]expectedKernel{}}
	for _, w := range workloads.All() {
		c, err := jrpm.Compile(w.Source, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Meta.Name, err)
		}
		in := w.NewInput(kernelScale)
		pr, err := c.Profile(ctx, in, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Meta.Name, err)
		}
		sr, err := jrpm.SpeculateContext(ctx, in, pr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Meta.Name, err)
		}
		data, err := record(ctx, w, opts)
		if err != nil {
			return err
		}
		rows, err := cluster.Local{Workers: sweepWorkers}.SweepRecording(ctx, w.Meta.Name, w.Source, data, sweepGrid(), opts)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Meta.Name, err)
		}
		canon, err := cluster.Canonical(rows)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Meta.Name, err)
		}
		sel := pr.Analysis.SelectedLoopIDs()
		if sel == nil {
			sel = []int{}
		}
		out.Kernels[w.Meta.Name] = expectedKernel{
			Selected:    sel,
			Predicted:   pr.Analysis.PredictedSpeedup(),
			Actual:      sr.ActualSpeedup,
			SweepSHA256: sha256Hex(canon),
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
