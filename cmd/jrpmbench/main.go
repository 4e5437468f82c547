// Command jrpmbench fires open-loop load at the jrpm serving stack and
// reports tail latency, throughput, and error classes.
//
// Usage:
//
//	jrpmbench -spec specs/load_smoke.json                # loopback jrpmd
//	jrpmbench -spec spec.json -daemon localhost:8077     # running jrpmd
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
// Every run drives jrpmd's HTTP API, so a latency includes the
// transport and JSON stages every client pays, the X-JRPM-Tenant header
// and 429 handling. -daemon names a running jrpmd, which sets the
// workers, queue bound and quotas a saturation or shedding scenario
// needs; without it jrpmbench serves a default-configured pool on a
// loopback listener for the length of the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"jrpm/internal/loadgen"
	"jrpm/internal/service"
)

func main() {
	var (
		daemon  = flag.String("daemon", "", "drive the jrpmd at this address; empty = serve a default pool on loopback")
		out     = flag.String("out", "", "write BENCH_load.json-style results to this file")
		plan    = flag.Bool("plan", false, "print the schedule summary and fingerprint without running")
		version = flag.Bool("version", false, "print module + trace-format version and exit")
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

	if err := run(specs, *daemon, *out, *plan); err != nil {
		fmt.Fprintln(os.Stderr, "jrpmbench:", err)
		os.Exit(1)
	}
}

func run(specs []string, daemon, out string, plan bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rows := map[string]loadgen.BenchRow{}
	for _, path := range specs {
		spec, err := loadgen.LoadSpec(path)
		if err != nil {
			return err
		}
		sched, err := loadgen.Build(spec)
		if err != nil {
			return err
		}
		fmt.Printf("spec %s: %d requests over %s, fingerprint %s\n",
			spec.Name, len(sched.Ops), spec.Duration(), sched.Fingerprint())
		if plan {
			printPlan(sched)
			continue
		}

		if daemon == "" { // the first run starts the loopback server
			addr, shutdown, err := serveLoopback()
			if err != nil {
				return err
			}
			defer shutdown()
			daemon = addr
		}
		remote := loadgen.NewRemote(daemon)
		res, err := loadgen.Run(ctx, sched, remote)
		remote.Close()
		if err != nil {
			return err
		}
		printResult(res)
		for k, v := range res.BenchRows() {
			rows[k] = v
		}
	}

	if out != "" && len(rows) > 0 {
		b, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d rows to %s\n", len(rows), out)
	}
	return nil
}

// serveLoopback serves a default-configured pool's API on a loopback
// port, returning its address and a function that shuts the server and
// the pool down.
func serveLoopback() (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	pool := service.NewPool(service.Config{})
	srv := &http.Server{Handler: service.NewServer(pool).Handler()}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at shutdown
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // exiting either way
		pool.Stop()
	}, nil
}

// specList lets -spec repeat.
type specList []string

func (s *specList) String() string { return fmt.Sprint([]string(*s)) }
func (s *specList) Set(v string) error {
	*s = append(*s, v)
	return nil
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
	fmt.Printf("%s: offered %.1f rps, achieved %.1f rps, peak in-flight %d, wall %.2fs (+%.2fs prepare)\n",
		res.Spec, res.OfferedRPS, res.AchievedRPS, res.PeakInFlight,
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
