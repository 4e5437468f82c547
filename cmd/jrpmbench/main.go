// Command jrpmbench fires open-loop load at the jrpm serving stack and
// reports tail latency, throughput, and error classes.
//
// Usage:
//
//	jrpmbench -spec specs/load_smoke.json                # in-process pool
//	jrpmbench -spec specs/load_saturation.json -workers 2
//	jrpmbench -spec spec.json -daemon localhost:8077     # remote jrpmd
//	jrpmbench -spec spec.json -out BENCH_load.json       # trajectory point
//	jrpmbench -spec spec.json -plan                      # print schedule only
//
// The schedule is a pure function of the spec (seeded PRNG): the
// printed fingerprint is identical across runs of the same spec, which
// is how two runs prove they offered the identical request sequence.
// Requests launch at their scheduled instants regardless of earlier
// completions, and latency is measured from the intended send time, so
// server-side queueing cannot hide in the generator (no coordinated
// omission).
//
// A spec whose "corpus" field names a corpus manifest (see jrpm corpus
// generate) draws its kernel pool from the generated programs instead
// of the registered benchmarks; requests then carry the regenerated
// sources inline.
//
// In-process runs build a service.Pool from the -workers/-queue/
// -admit-hwm/-tenant-rate/-tenant-burst flags, so saturation and
// shedding scenarios are self-contained; -daemon drives a live jrpmd
// over HTTP instead, including the X-JRPM-Tenant header and 429
// Retry-After handling.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"text/tabwriter"

	"jrpm/internal/loadgen"
	"jrpm/internal/service"
)

func main() {
	var (
		daemon      = flag.String("daemon", "", "drive a remote jrpmd at this address; empty = in-process pool")
		out         = flag.String("out", "", "write BENCH_load.json-style results to this file")
		plan        = flag.Bool("plan", false, "print the schedule summary and fingerprint without running")
		workers     = flag.Int("workers", 0, "in-process pool: worker goroutines (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "in-process pool: max queued jobs before 429")
		admitHWM    = flag.Float64("admit-hwm", 0, "in-process pool: admission high-water mark as a fraction of queue depth (0 = off)")
		tenantRate  = flag.Float64("tenant-rate", 0, "in-process pool: per-tenant quota, jobs/second (0 = off)")
		tenantBurst = flag.Float64("tenant-burst", 0, "in-process pool: per-tenant quota burst (0 = max(1, rate))")
		version     = flag.Bool("version", false, "print module + trace-format version and exit")
	)
	var specs specList
	flag.Var(&specs, "spec", "load spec JSON file (repeatable)")
	flag.Parse()

	if *version {
		service.PrintVersion(os.Stdout, "jrpmbench")
		return
	}

	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "jrpmbench: at least one -spec is required")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rows := map[string]loadgen.BenchRow{}
	for _, path := range specs {
		spec, err := loadgen.LoadSpec(path)
		if err != nil {
			fatal(err)
		}
		sched, err := loadgen.Build(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("spec %s: %d requests over %s, fingerprint %s\n",
			spec.Name, len(sched.Ops), spec.Duration(), sched.Fingerprint())
		if *plan {
			printPlan(sched)
			continue
		}

		platform := newPlatform(*daemon, service.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			AdmitHighWater: *admitHWM,
			TenantRate:     *tenantRate,
			TenantBurst:    *tenantBurst,
		})
		res, err := loadgen.Run(ctx, sched, platform)
		cerr := platform.Close()
		if err != nil {
			fatal(err)
		}
		if cerr != nil {
			fatal(cerr)
		}
		printResult(res)
		for k, v := range res.BenchRows() {
			rows[k] = v
		}
	}

	if *out != "" && len(rows) > 0 {
		b, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d rows to %s\n", len(rows), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jrpmbench:", err)
	os.Exit(1)
}

// specList lets -spec repeat.
type specList []string

func (s *specList) String() string { return fmt.Sprint([]string(*s)) }
func (s *specList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func newPlatform(daemon string, cfg service.Config) loadgen.Platform {
	if daemon != "" {
		return loadgen.NewRemote(daemon)
	}
	return loadgen.NewInProcessPool(cfg)
}

// printPlan summarizes the schedule's class/tenant composition without
// executing anything — the determinism check runs this twice and
// compares fingerprints.
func printPlan(sched *loadgen.Schedule) {
	classes := map[loadgen.OpClass]int{}
	tenants := map[string]int{}
	for _, op := range sched.Ops {
		classes[op.Class]++
		if op.Tenant != "" {
			tenants[op.Tenant]++
		}
	}
	for _, c := range loadgen.Classes {
		if n := classes[c]; n > 0 {
			fmt.Printf("  class %-8s %6d\n", c, n)
		}
	}
	var names []string
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		fmt.Printf("  tenant %-7s %6d\n", t, tenants[t])
	}
	fmt.Printf("  kernels: %d distinct\n", len(sched.Kernels))
}

func printResult(res *loadgen.Result) {
	fmt.Printf("platform %s: offered %.1f rps, achieved %.1f rps, peak in-flight %d, wall %.2fs (+%.2fs prepare)\n",
		res.Platform, res.OfferedRPS, res.AchievedRPS, res.PeakInFlight,
		res.WallSeconds, res.PrepareSeconds)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "class\ttotal\tok\tshed\tdeadline\treject\tinternal\tdropped\tp50ms\tp90ms\tp99ms\tp99.9ms\tmaxms\tmeanms")
	rows := append([]loadgen.ClassReport{}, res.Report.Classes...)
	rows = append(rows, res.Report.Overall)
	for _, cr := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			cr.Class, cr.Total, cr.OKCount,
			cr.Errors[loadgen.ErrShed], cr.Errors[loadgen.ErrDeadline],
			cr.Errors[loadgen.ErrReject], cr.Errors[loadgen.ErrInternal],
			cr.Errors[loadgen.ErrDropped],
			cr.P50Ms, cr.P90Ms, cr.P99Ms, cr.P999Ms, cr.MaxMs, cr.MeanMs)
	}
	w.Flush()
}
