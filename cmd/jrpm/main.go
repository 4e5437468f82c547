// Command jrpm runs the complete Java Runtime Parallelizing Machine
// pipeline on a JR program: profile with TEST, select STLs with
// Equations 1 and 2, recompile, and execute speculatively on the simulated
// 4-CPU Hydra CMP.
//
// Usage:
//
//	jrpm -w Huffman              # built-in workload
//	jrpm -src prog.jr            # standalone program
//	jrpm -w LuFactor -scale 0.5  # smaller input
//	jrpm -w Huffman -daemon localhost:8077   # submit to a jrpmd instead
//
// Trace verbs (see README "Recording and replaying traces"):
//
//	jrpm trace record -w Huffman -o huffman.jrt    # profile once, capture the event stream
//	jrpm trace info huffman.jrt                    # inspect a recording
//	jrpm trace analyze -w Huffman -trace huffman.jrt -banks 1,2,4,8
//
// Sampling profiler (see README "Observability"):
//
//	jrpm profile -w Huffman -sample              # hot functions and loops
//	jrpm profile -w Huffman -sample -period 65536
//
// Distributed sweeps (see README "Distributed sweeps"):
//
//	jrpm sweep -w Huffman -trace huffman.jrt -banks 1,2,4,8 -history 2,4,8 \
//	    -workers host1:8077,host2:8077
//	jrpm sweep ... -registry hub:8077      # dynamic fleet (see README "Running a fleet")
//	jrpm sweep ... -trace-out spans.json   # stitched distributed trace
//
// Adaptive sessions (see README "Closing the loop"):
//
//	jrpm session -w BitOps -scale 0.35 -epochs 8       # promote, observe, demote
//	jrpm session -w BitOps -jitter -seed 7 -budget 5000000
//	jrpm session -w BitOps -daemon localhost:8077      # run it on a jrpmd
//
// Generated corpora (see README "Generating a corpus"):
//
//	jrpm corpus generate -name smoke -o corpus/       # manifest + sources
//	jrpm corpus info corpus/manifest.json
//	jrpm corpus run -name default                     # oracle-band check table
//	jrpm sweep -corpus corpus/manifest.json -corpus-n 8 -banks 1,4,8
package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"jrpm"
	"jrpm/internal/cluster"
	"jrpm/internal/fleet"
	"jrpm/internal/hydra"
	"jrpm/internal/service"
	"jrpm/internal/telemetry"
	"jrpm/internal/tir"
	"jrpm/internal/trace"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		traceMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		sweepMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "profile" {
		profileMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "session" {
		sessionMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "corpus" {
		corpusMain(os.Args[2:])
		return
	}
	var (
		wname   = flag.String("w", "", "built-in workload name")
		srcPath = flag.String("src", "", "path to a .jr source file")
		scale   = flag.Float64("scale", 1, "input scale factor for -w")
		list    = flag.Bool("list", false, "list built-in workloads")
		daemon  = flag.String("daemon", "", "jrpmd address: submit the job to a running daemon instead of executing locally")
		version = flag.Bool("version", false, "print module + trace-format version and exit")
	)
	flag.Parse()

	if *version {
		printVersion("jrpm")
		return
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-14s %-14s %s\n", w.Meta.Name, w.Meta.Category, w.Meta.Description)
		}
		return
	}

	var src string
	var in jrpm.Input
	switch {
	case *wname != "":
		w, err := workloads.ByName(*wname)
		if err != nil {
			fatal(err)
		}
		src = w.Source
		in = w.NewInput(*scale)
	case *srcPath != "":
		b, err := os.ReadFile(*srcPath)
		if err != nil {
			fatal(err)
		}
		src = string(b)
	default:
		fmt.Fprintln(os.Stderr, "usage: jrpm -w <workload> | -src <file.jr> [-daemon addr]")
		os.Exit(2)
	}

	if *daemon != "" {
		runRemote(*daemon, *wname, *scale, src)
		return
	}

	res, err := jrpm.Run(src, in, jrpm.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	pr := res.Profile
	an := pr.Analysis

	fmt.Printf("sequential cycles:       %d\n", pr.CleanCycles)
	fmt.Printf("profiling slowdown:      %.2fx\n", pr.Slowdown())
	fmt.Printf("loops found:             %d (max dynamic nest depth %d)\n", len(pr.Annotated.Loops), an.MaxDepth())
	fmt.Printf("selected STLs:           %d\n", len(an.Selected))
	for _, n := range an.Selected {
		r := res.Loops[n.Loop]
		line := fmt.Sprintf("  %-20s coverage %5.1f%%  est %.2fx", an.LoopName(n.Loop),
			100*float64(n.Stats.Cycles)/float64(an.TotalCycles), n.Est.Speedup)
		if r != nil {
			line += fmt.Sprintf("  actual %.2fx  (%d threads, %d violations, %d comm-stall cycles, %d overflow stalls)",
				r.Speedup, r.Threads, r.Violations, r.CommStalls, r.OverflowStalls)
		}
		fmt.Println(line)
	}
	fmt.Printf("\nrecompilation plan:\n%s", res.Plan)
	fmt.Printf("\npredicted program speedup: %.2fx\n", an.PredictedSpeedup())
	fmt.Printf("actual program speedup:    %.2fx (TLS simulation)\n", res.ActualSpeedup)
}

// runRemote submits the job to a jrpmd daemon and waits for the result.
// Workloads are sent by name (the daemon regenerates the deterministic
// inputs); file sources are sent inline.
func runRemote(addr, wname string, scale float64, src string) {
	req := service.Request{Speculate: true}
	if wname != "" {
		req.Workload = wname
		req.Scale = scale
	} else {
		req.Source = src
	}
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 15 * time.Minute}

	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	var sub struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	decodeBody(resp, &sub)
	if sub.Error != "" {
		fatal(fmt.Errorf("daemon rejected job: %s", sub.Error))
	}

	resp, err = client.Get(base + "/v1/jobs/" + sub.ID + "?wait=1")
	if err != nil {
		fatal(err)
	}
	var view service.JobView
	decodeBody(resp, &view)
	if view.State != service.StateDone {
		fatal(fmt.Errorf("job %s %s: %s", view.ID, view.State, view.Error))
	}
	r := view.Result

	fmt.Printf("job %s on %s (queue %.1fms, run %.1fms, cache hit: %v)\n",
		view.ID, addr, view.QueueWaitMs, view.RunMs, r.CacheHit)
	fmt.Printf("sequential cycles:       %d\n", r.CleanCycles)
	fmt.Printf("profiling slowdown:      %.2fx\n", r.Slowdown)
	fmt.Printf("selected STLs:           %d\n", len(r.SelectedLoops))
	for _, l := range r.Loops {
		if !l.Selected {
			continue
		}
		line := fmt.Sprintf("  %-20s coverage %5.1f%%  est %.2fx", l.Name, 100*l.Coverage, l.EstSpeedup)
		if l.ActualSpeedup > 0 {
			line += fmt.Sprintf("  actual %.2fx  (%d threads, %d violations, %d comm-stall cycles, %d overflow stalls)",
				l.ActualSpeedup, l.Threads, l.Violations, l.CommStalls, l.OverflowStalls)
		}
		fmt.Println(line)
	}
	fmt.Printf("\npredicted program speedup: %.2fx\n", r.PredictedSpeedup)
	fmt.Printf("actual program speedup:    %.2fx (TLS simulation)\n", r.ActualSpeedup)
}

func decodeBody(resp *http.Response, v any) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	// A proxy or load balancer answering for a dead daemon sends HTML;
	// surface that as what it is instead of a JSON parse error.
	if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt != "application/json" {
		fatal(fmt.Errorf("daemon answered %q, not JSON (HTTP %d): %.200s",
			resp.Header.Get("Content-Type"), resp.StatusCode, b))
	}
	if err := json.Unmarshal(b, v); err != nil {
		fatal(fmt.Errorf("bad daemon response (HTTP %d): %s", resp.StatusCode, b))
	}
}

// traceMain dispatches the `jrpm trace <verb>` subcommands.
func traceMain(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: jrpm trace record|analyze|info ...")
		os.Exit(2)
	}
	switch args[0] {
	case "record":
		traceRecord(args[1:])
	case "analyze":
		traceAnalyze(args[1:])
	case "info":
		traceInfo(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "jrpm trace: unknown verb %q (want record, analyze or info)\n", args[0])
		os.Exit(2)
	}
}

// resolveProgram is the shared -w / -src / -scale resolution for trace
// verbs.
func resolveProgram(fs *flag.FlagSet, wname, srcPath string, scale float64) (string, jrpm.Input) {
	switch {
	case wname != "":
		w, err := workloads.ByName(wname)
		if err != nil {
			fatal(err)
		}
		return w.Source, w.NewInput(scale)
	case srcPath != "":
		b, err := os.ReadFile(srcPath)
		if err != nil {
			fatal(err)
		}
		return string(b), jrpm.Input{}
	default:
		fs.Usage()
		os.Exit(2)
		panic("unreachable")
	}
}

// traceRecord profiles once and captures the traced run's event stream.
func traceRecord(args []string) {
	fs := flag.NewFlagSet("jrpm trace record", flag.ExitOnError)
	wname := fs.String("w", "", "built-in workload name")
	srcPath := fs.String("src", "", "path to a .jr source file")
	scale := fs.Float64("scale", 1, "input scale factor for -w")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *out == "" {
		fatal(errors.New("trace record: -o <file> is required"))
	}
	src, in := resolveProgram(fs, *wname, *srcPath, *scale)

	c, err := jrpm.Compile(src, jrpm.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	pr, err := c.ProfileRecord(context.Background(), in, jrpm.DefaultOptions(), f)
	if err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	hash := c.TraceHash()
	fmt.Printf("recorded %s: %d bytes, program %s\n", *out, st.Size(), hex.EncodeToString(hash[:8]))
	fmt.Printf("sequential cycles: %d, traced cycles: %d (slowdown %.2fx)\n",
		pr.CleanCycles, pr.TracedCycles, pr.Slowdown())
	fmt.Printf("selected STLs: %v (predicted %.2fx)\n",
		pr.Analysis.SelectedLoopIDs(), pr.Analysis.PredictedSpeedup())
}

// traceInfo prints a recording's header, per-kind record counts, and
// summary trailer without needing the source program.
func traceInfo(args []string) {
	fs := flag.NewFlagSet("jrpm trace info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(errors.New("trace info: exactly one trace file expected"))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	hdr := r.Header()
	var counts [vmsim.EvReadStats + 1]uint64 // a recording holds no call events
	var lastTime int64
	evs := make([]vmsim.Event, 512)
	for {
		n, err := r.ReadEvents(evs)
		for _, ev := range evs[:n] {
			counts[ev.Kind]++
			lastTime = ev.Now
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fatal(err)
		}
	}
	sum, _ := r.Summary()
	fmt.Printf("format version:  %d\n", hdr.Version)
	fmt.Printf("program hash:    %s\n", hex.EncodeToString(hdr.ProgramHash[:]))
	fmt.Printf("records:         %d (last event at cycle %d)\n", sum.Records, lastTime)
	for k, n := range counts {
		if n > 0 {
			fmt.Printf("  %-12s %d\n", trace.KindHeapLoad+trace.Kind(k), n)
		}
	}
	fmt.Printf("clean cycles:    %d\n", sum.CleanCycles)
	fmt.Printf("traced cycles:   %d\n", sum.TracedCycles)
	fmt.Printf("annotations:     %d\n", sum.Annotations)
}

// traceAnalyze replays one recording under the cross product of the
// -banks and -history lists, concurrently, with zero VM executions.
func traceAnalyze(args []string) {
	fs := flag.NewFlagSet("jrpm trace analyze", flag.ExitOnError)
	wname := fs.String("w", "", "built-in workload name (must match the recording)")
	srcPath := fs.String("src", "", "path to the recorded program's .jr source")
	scale := fs.Float64("scale", 1, "input scale factor for -w (unused during replay)")
	tracePath := fs.String("trace", "", "recorded trace file (required)")
	banksList := fs.String("banks", "", "comma-separated comparator bank counts to sweep")
	histList := fs.String("history", "", "comma-separated heap-store history depths to sweep")
	fs.Parse(args)
	if *tracePath == "" {
		fatal(errors.New("trace analyze: -trace <file> is required"))
	}
	src, _ := resolveProgram(fs, *wname, *srcPath, *scale)

	c, err := jrpm.Compile(src, jrpm.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	data, err := os.ReadFile(*tracePath)
	if err != nil {
		fatal(err)
	}

	base := hydra.DefaultConfig()
	banks, err := intList(*banksList, base.Tracer.Banks)
	if err != nil {
		fatal(fmt.Errorf("trace analyze: -banks: %w", err))
	}
	hists, err := intList(*histList, base.Tracer.HeapStoreLines)
	if err != nil {
		fatal(fmt.Errorf("trace analyze: -history: %w", err))
	}
	var cfgs []hydra.Config
	for _, b := range banks {
		for _, h := range hists {
			cfg := base
			cfg.Tracer.Banks = b
			cfg.Tracer.HeapStoreLines = h
			cfgs = append(cfgs, cfg)
		}
	}

	outs := c.SweepTrace(context.Background(), data, cfgs, jrpm.DefaultOptions(), 0)
	fmt.Printf("%-6s %-8s %-10s %s\n", "banks", "history", "predicted", "selected STLs")
	for i, o := range outs {
		if o.Err != nil {
			fatal(fmt.Errorf("config %d (banks=%d history=%d): %w",
				i, cfgs[i].Tracer.Banks, cfgs[i].Tracer.HeapStoreLines, o.Err))
		}
		names := make([]string, 0, len(o.Analysis.Selected))
		for _, id := range o.Analysis.SelectedLoopIDs() {
			names = append(names, o.Analysis.LoopName(id))
		}
		fmt.Printf("%-6d %-8d %-10.2f %s\n",
			cfgs[i].Tracer.Banks, cfgs[i].Tracer.HeapStoreLines,
			o.Analysis.PredictedSpeedup(), strings.Join(names, " "))
	}
}

// profileMain runs `jrpm profile`: one profiling pass with the VM
// sampling profiler attached, printing hot functions and annotated
// loops (flat = samples with the frame on top, cum = samples anywhere
// on the annotated-loop stack).
func profileMain(args []string) {
	fs := flag.NewFlagSet("jrpm profile", flag.ExitOnError)
	wname := fs.String("w", "", "built-in workload name")
	srcPath := fs.String("src", "", "path to a .jr source file")
	scale := fs.Float64("scale", 1, "input scale factor for -w")
	sample := fs.Bool("sample", true, "attach the VM sampling profiler")
	period := fs.Int64("period", 8192, "sampling period in VM steps (rounded up to the interpreter's poll window)")
	topN := fs.Int("top", 10, "rows to print per table")
	native := fs.Bool("native", true, "run annotated loops on the closure-threaded native tier (bit-identical; reported per loop)")
	fs.Parse(args)
	src, in := resolveProgram(fs, *wname, *srcPath, *scale)

	opts := jrpm.DefaultOptions()
	if *sample {
		opts.SamplePeriod = *period
	}
	c, err := jrpm.Compile(src, opts)
	if err != nil {
		fatal(err)
	}
	if *native {
		for i := range c.Clean.Loops {
			opts.NativeLoops = append(opts.NativeLoops, c.Clean.Loops[i].ID)
		}
	}
	pr, err := c.Profile(context.Background(), in, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sequential cycles:  %d\n", pr.CleanCycles)
	fmt.Printf("traced cycles:      %d (slowdown %.2fx)\n", pr.TracedCycles, pr.Slowdown())
	fmt.Printf("selected STLs:      %v (predicted %.2fx)\n",
		pr.Analysis.SelectedLoopIDs(), pr.Analysis.PredictedSpeedup())
	if *native {
		printLoopTiers(c.Clean, pr)
	}
	sp := pr.Samples
	if sp == nil {
		return
	}
	fmt.Printf("\nsampling profile: %d samples, one per %d steps\n", sp.Samples, sp.PeriodSteps)
	if sp.Samples == 0 {
		fmt.Println("  (program too short for the sampling period; lower -period or raise -scale)")
		return
	}
	fmt.Printf("\n%-24s %8s %6s\n", "function", "flat", "flat%")
	for i, f := range sp.Funcs {
		if i >= *topN {
			break
		}
		fmt.Printf("%-24s %8d %5.1f%%\n", f.Name, f.Flat, 100*float64(f.Flat)/float64(sp.Samples))
	}
	if len(sp.Loops) > 0 {
		fmt.Printf("\n%-24s %8s %8s %6s\n", "loop", "flat", "cum", "cum%")
		for i, l := range sp.Loops {
			if i >= *topN {
				break
			}
			fmt.Printf("%-24s %8d %8d %5.1f%%\n", l.Name, l.Flat, l.Cum, 100*float64(l.Cum)/float64(sp.Samples))
		}
	}
}

// printLoopTiers reports which execution tier each annotated loop ran
// in during the traced run: "native" (closure-threaded, with its
// enter/deopt/step counters, "fused" when the whole-iteration fast path
// compiled) or "predecode" (the interpreter, with the native compiler's
// rejection reason).
func printLoopTiers(prog *tir.Program, pr *jrpm.ProfileResult) {
	if len(prog.Loops) == 0 {
		return
	}
	stats := make(map[int]jrpm.NativeLoopStats, len(pr.Native))
	for _, ns := range pr.Native {
		stats[ns.Loop] = ns
	}
	fmt.Printf("\n%-24s %-14s %8s %8s %10s\n", "loop", "tier", "enters", "deopts", "steps")
	for i := range prog.Loops {
		l := &prog.Loops[i]
		if ns, ok := stats[l.ID]; ok {
			tier := "native"
			if ns.Fused {
				tier = "native(fused)"
			}
			fmt.Printf("%-24s %-14s %8d %8d %10d\n", l.Name, tier, ns.Enters, ns.Deopts, ns.Steps)
			continue
		}
		why := pr.NativeRejected[l.ID]
		if why == "" {
			why = "not requested"
		}
		fmt.Printf("%-24s %-14s (%s)\n", l.Name, "predecode", why)
	}
}

// sweepMain runs `jrpm sweep`: replay recordings under a bank ×
// history config grid, either locally or sharded across a fleet of
// jrpmd -worker daemons. The trace population is one recording
// (-trace, with -w/-src naming the program) or a generated corpus
// (-corpus, recording each program in-process first).
func sweepMain(args []string) {
	fs := flag.NewFlagSet("jrpm sweep", flag.ExitOnError)
	wname := fs.String("w", "", "built-in workload name (must match the recording)")
	srcPath := fs.String("src", "", "path to the recorded program's .jr source")
	scale := fs.Float64("scale", 1, "input scale factor for -w (unused during replay)")
	tracePath := fs.String("trace", "", "recorded trace file (required unless -corpus)")
	corpusPath := fs.String("corpus", "", "corpus manifest.json: sweep every corpus program instead of one recording")
	corpusN := fs.Int("corpus-n", 0, "cap the corpus at the first n programs (0 = all)")
	banksList := fs.String("banks", "", "comma-separated comparator bank counts to sweep")
	histList := fs.String("history", "", "comma-separated heap-store history depths to sweep")
	workerList := fs.String("workers", "", "comma-separated jrpmd worker addresses (empty = run locally)")
	registryAddr := fs.String("registry", "", "fleet registry address: schedule over its live members (workers may join or die mid-sweep) instead of a static -workers list")
	replicas := fs.Int("replicas", 1, "recording replicas placed across the fleet (worker-to-worker transfer)")
	progress := fs.Bool("progress", false, "print per-row progress to stderr as shards land (default with -registry)")
	shard := fs.Int("shard", 0, "configs per shard (0 = default)")
	showMetrics := fs.Bool("metrics", false, "print coordinator scheduling metrics")
	traceOut := fs.String("trace-out", "", "write the sweep's stitched span trace (coordinator + worker spans) to this JSON file")
	logLevel := fs.String("log-level", "warn", "minimum scheduler log level: debug, info, warn, error")
	fs.Parse(args)
	var traces []cluster.GridTrace
	switch {
	case *corpusPath != "" && *tracePath != "":
		fatal(errors.New("sweep: -corpus and -trace are mutually exclusive"))
	case *corpusPath != "":
		traces = corpusTraces(*corpusPath, *corpusN)
	case *tracePath != "":
		src, _ := resolveProgram(fs, *wname, *srcPath, *scale)
		data, err := os.ReadFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		name := *wname
		if name == "" {
			name = *srcPath
		}
		traces = []cluster.GridTrace{{Name: name, Source: src, Data: data}}
	default:
		fatal(errors.New("sweep: -trace <file> or -corpus <manifest.json> is required"))
	}

	base := hydra.DefaultConfig()
	banks, err := intList(*banksList, base.Tracer.Banks)
	if err != nil {
		fatal(fmt.Errorf("sweep: -banks: %w", err))
	}
	hists, err := intList(*histList, base.Tracer.HeapStoreLines)
	if err != nil {
		fatal(fmt.Errorf("sweep: -history: %w", err))
	}
	var cfgs []hydra.Config
	for _, b := range banks {
		for _, h := range hists {
			cfg := base
			cfg.Tracer.Banks = b
			cfg.Tracer.HeapStoreLines = h
			cfgs = append(cfgs, cfg)
		}
	}

	var addrs []string
	if *workerList != "" {
		for _, a := range strings.Split(*workerList, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	}
	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fatal(fmt.Errorf("sweep: %w", err))
	}
	copts := cluster.Options{
		Workers:      addrs,
		Replicas:     *replicas,
		ShardConfigs: *shard,
		Logger:       telemetry.NewLogger(os.Stderr, level),
	}
	if *registryAddr != "" {
		copts.Workers = nil
		copts.Membership = fleet.NewRegistryMembership(*registryAddr)
	}
	coord := cluster.New(copts)

	// With -trace-out the whole sweep runs under one client span; the
	// workers' server-side spans join it over traceparent headers and are
	// fetched back afterwards to stitch the full distributed trace.
	ctx := context.Background()
	var col *telemetry.Collector
	var root *telemetry.Span
	if *traceOut != "" {
		col = telemetry.NewCollector(telemetry.DefaultCollectorCap)
		ctx = telemetry.WithTracer(ctx, telemetry.NewTracer(col))
		ctx, root = telemetry.StartSpan(ctx, "jrpm.sweep")
	}

	// Progress streams per-row completions to stderr as shards land —
	// the client-side face of the streaming-sweep path.
	var onRow func(int, int, cluster.OutcomeRow)
	rowsDone := 0
	if *progress || *registryAddr != "" {
		onRow = func(_, _ int, _ cluster.OutcomeRow) {
			rowsDone++
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d rows", rowsDone, len(cfgs)*len(traces))
		}
	}
	res, err := coord.SweepStream(ctx, cluster.Grid{
		Traces:  traces,
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	}, onRow)
	if rowsDone > 0 {
		fmt.Fprintln(os.Stderr)
	}
	root.End()
	if err != nil {
		fatal(err)
	}
	if res.Degraded {
		fmt.Fprintln(os.Stderr, "sweep: no workers reachable; ran locally")
	}
	if *traceOut != "" {
		if err := writeStitchedTrace(*traceOut, root.TraceID(), col, addrs); err != nil {
			fatal(fmt.Errorf("sweep: -trace-out: %w", err))
		}
	}

	for ti, rows := range res.Outcomes {
		if len(traces) > 1 {
			fmt.Printf("%s:\n", traces[ti].Name)
		}
		fmt.Printf("%-6s %-8s %-10s %s\n", "banks", "history", "predicted", "selected STLs")
		for i, row := range rows {
			if row.Err != "" {
				fatal(fmt.Errorf("%s config %d (banks=%d history=%d): %s",
					traces[ti].Name, i, cfgs[i].Tracer.Banks, cfgs[i].Tracer.HeapStoreLines, row.Err))
			}
			fmt.Printf("%-6d %-8d %-10.2f %v\n",
				cfgs[i].Tracer.Banks, cfgs[i].Tracer.HeapStoreLines,
				row.PredictedSpeedup(), row.Selected)
		}
	}
	if *showMetrics {
		b, err := json.MarshalIndent(res.Metrics, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nscheduling metrics:\n%s\n", b)
	}
}

// writeStitchedTrace merges the coordinator's local spans with each
// worker's server-side spans for the sweep's trace ID and writes one
// JSON document. Workers that cannot be reached (or predate the spans
// endpoint) are skipped with a note rather than failing the sweep.
func writeStitchedTrace(path, traceID string, col *telemetry.Collector, addrs []string) error {
	type dump struct {
		TraceID string               `json:"trace_id"`
		Spans   []telemetry.SpanData `json:"spans"`
		Dropped int64                `json:"dropped,omitempty"`
	}
	out := dump{TraceID: traceID, Spans: col.Snapshot(traceID), Dropped: col.Dropped()}
	client := &http.Client{Timeout: 10 * time.Second}
	for _, addr := range addrs {
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		resp, err := client.Get(strings.TrimRight(base, "/") + "/v1/traces/spans?trace_id=" + traceID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: spans from %s: %v (skipped)\n", addr, err)
			continue
		}
		var wd struct {
			Spans   []telemetry.SpanData `json:"spans"`
			Dropped int64                `json:"dropped"`
		}
		err = json.NewDecoder(resp.Body).Decode(&wd)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "sweep: spans from %s: HTTP %d (skipped)\n", addr, resp.StatusCode)
			continue
		}
		out.Spans = append(out.Spans, wd.Spans...)
		out.Dropped += wd.Dropped
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: wrote %d spans (trace %s) to %s\n", len(out.Spans), traceID, path)
	return nil
}

// intList parses a comma-separated list of positive ints; an empty list
// yields the single fallback value.
func intList(s string, fallback int) ([]int, error) {
	if s == "" {
		return []int{fallback}, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("value %d out of range", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jrpm:", err)
	os.Exit(1)
}

// printVersion prints the GET /v1/version payload for the -version
// flag, keyed deterministically.
func printVersion(cmd string) {
	p := service.VersionPayload()
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s", cmd)
	for _, k := range keys {
		fmt.Printf(" %s=%v", k, p[k])
	}
	fmt.Println()
}
