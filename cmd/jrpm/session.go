package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"jrpm"
	"jrpm/internal/service"
	"jrpm/internal/session"
	"jrpm/internal/telemetry"
	"jrpm/internal/workloads"
)

// sessionMain runs `jrpm session`: an online adaptive session that
// repeatedly profiles the program under (optionally jittered) traffic,
// promotes the loops Equation 2 keeps selecting, re-executes them under
// TLS, and demotes the ones whose observed speedup falls short of the
// profile's prediction. It prints the per-loop tier table and the
// tier-transition report.
func sessionMain(args []string) {
	fs := flag.NewFlagSet("jrpm session", flag.ExitOnError)
	wname := fs.String("w", "", "built-in workload name")
	srcPath := fs.String("src", "", "path to a .jr source file")
	scale := fs.Float64("scale", 1, "input scale factor for -w")
	epochs := fs.Int("epochs", session.DefaultEpochs, "epochs to run (0 with -budget: run to the cycle budget)")
	budget := fs.Int64("budget", 0, "total VM-cycle budget across all epochs (0 = unbounded)")
	period := fs.Int64("period", session.DefaultSamplePeriod, "sampling-profiler period in VM steps")
	jitter := fs.Bool("jitter", false, "regenerate the workload input each epoch at a jittered scale (requires -w)")
	seed := fs.Uint64("seed", 1, "traffic jitter seed for -jitter")
	asJSON := fs.Bool("json", false, "print the final session view as JSON instead of the text report")
	logLevel := fs.String("log-level", "warn", "minimum decision-log level: debug, info, warn, error")
	daemon := fs.String("daemon", "", "jrpmd address: run the session on a daemon instead of in-process")
	fs.Parse(args)

	if *daemon != "" {
		remoteSession(*daemon, *wname, *srcPath, *scale, *epochs, *budget, *period, *jitter, *seed, *asJSON)
		return
	}

	src, in := resolveProgram(fs, *wname, *srcPath, *scale)
	if *jitter && *wname == "" {
		fatal(errors.New("session: -jitter requires -w (inline sources have fixed inputs)"))
	}

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fatal(fmt.Errorf("session: %w", err))
	}

	compiled, err := jrpm.Compile(src, jrpm.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	name := *wname
	if name == "" {
		name = *srcPath
	}
	traffic := session.FixedTraffic(in)
	if *jitter {
		w, err := workloads.ByName(*wname)
		if err != nil {
			fatal(err)
		}
		traffic = session.JitteredTraffic(w.NewInput, *scale, *seed)
	}

	s, err := session.New(session.Config{
		Compiled:     compiled,
		Name:         name,
		Traffic:      traffic,
		Epochs:       *epochs,
		CycleBudget:  *budget,
		SamplePeriod: *period,
		Logger:       telemetry.NewLogger(os.Stderr, level),
	})
	if err != nil {
		fatal(fmt.Errorf("session: %w", err))
	}
	s.ID = "local"
	s.Run(context.Background()) //nolint:errcheck // the view carries the error
	printSession(s.View(), *asJSON)
}

// remoteSession starts the session on a jrpmd daemon and polls it to a
// terminal state, then renders the same report from the daemon's view.
func remoteSession(addr, wname, srcPath string, scale float64, epochs int, budget, period int64, jitter bool, seed uint64, asJSON bool) {
	req := service.SessionRequest{
		Workload:     wname,
		Scale:        scale,
		Epochs:       epochs,
		CycleBudget:  budget,
		SamplePeriod: period,
		Jitter:       jitter,
		Seed:         seed,
	}
	if wname == "" {
		b, err := os.ReadFile(srcPath)
		if err != nil {
			fatal(err)
		}
		req.Source = string(b)
	}
	api := service.NewClient(addr, &http.Client{Timeout: 15 * time.Minute})
	ctx := context.Background()
	id, err := api.StartSession(ctx, req, "")
	if err != nil {
		fatal(fmt.Errorf("start session on %s: %w", addr, err))
	}
	fmt.Fprintf(os.Stderr, "session %s started on %s\n", id, addr)
	v, err := api.WaitSession(ctx, id)
	if err != nil {
		fatal(err)
	}
	printSession(v, asJSON)
}

// printSession prints a finished session's view as JSON or as the text
// report, exiting 1 when the session failed.
func printSession(v session.View, asJSON bool) {
	if asJSON {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Print(v.Report())
	if v.State == "failed" {
		os.Exit(1)
	}
}
