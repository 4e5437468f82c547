// Command jrpmd is the resident Jrpm profiling service: a job queue and
// worker pool running TEST profiling (and optional TLS simulation) jobs
// concurrently, with a content-addressed cache of compiled artifacts and
// an HTTP JSON API.
//
// Usage:
//
//	jrpmd                          # serve on :8077 with GOMAXPROCS workers
//	jrpmd -addr :9000 -workers 8 -queue 256 -cache 512 -timeout 30s
//	jrpmd -worker                  # also serve cluster shard endpoints
//	jrpmd -sessions 8              # allow 8 concurrent adaptive sessions
//	jrpmd -tenant-rate 50 -tenant-burst 100  # per-tenant quotas (X-JRPM-Tenant)
//	jrpmd -pprof localhost:6060    # expose Go pprof on a second listener
//	jrpmd -log-level debug         # structured key=value logs, debug up
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id}[?wait=1],
// DELETE /v1/jobs/{id}, POST/GET /v1/sessions,
// GET /v1/sessions/{id}[?wait=1], DELETE /v1/sessions/{id},
// GET /v1/metrics (?format=prom for Prometheus text), GET /metrics,
// GET /v1/healthz, GET /v1/readyz, GET /v1/version,
// GET /v1/traces/spans; with -worker additionally
// POST /v1/shards and PUT /v1/traces/{hash}. See the README
// sections "Running as a service", "Observability", "Distributed
// sweeps", "Running a fleet" and "Closing the loop" for request and
// response shapes.
//
// Every jrpmd also hosts the fleet surface: a membership registry
// (POST /v1/fleet/register, GET /v1/fleet/members,
// DELETE /v1/fleet/members/{id}) and a streaming sweep API
// (POST /v1/sweeps, GET /v1/sweeps/{id}[/rows], DELETE /v1/sweeps/{id})
// whose coordinator schedules shards over the registry's live members,
// pushing each recording to a worker the first time the worker answers
// one of its shards with trace_missing. Workers join a fleet with
//
//	jrpmd -worker -addr :8078 -registry hub:8077 -advertise host:8078
//
// heartbeating until drain, when they deregister before the queue
// drains so no new shards land on a dying worker.
//
// Every request runs under a telemetry span; requests carrying a W3C
// traceparent header join the caller's distributed trace, and the
// collected spans are served on GET /v1/traces/spans.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting
// new work, drains queued and running jobs until -drain elapses, flushes
// a final metrics snapshot to the log, and exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"jrpm"
	"jrpm/internal/cluster"
	"jrpm/internal/fleet"
	"jrpm/internal/fleet/sweeps"
	"jrpm/internal/service"
	"jrpm/internal/telemetry"
	"jrpm/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", ":8077", "listen address")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "max queued jobs before 429")
		cache    = flag.Int("cache", 128, "artifact cache capacity (compiled programs)")
		trcMB    = flag.Int64("trace-cache-mb", 256, "recorded-trace cache capacity, in MiB")
		timeout  = flag.Duration("timeout", 60*time.Second, "default per-job timeout")
		maxTO    = flag.Duration("max-timeout", 10*time.Minute, "hard cap on per-job timeout")
		longPoll = flag.Duration("longpoll", 30*time.Second, "max ?wait=1 long-poll before 202 + retry hint")
		drain    = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline for in-flight jobs")
		worker   = flag.Bool("worker", false, "serve cluster worker endpoints (POST /v1/shards, PUT /v1/traces)")
		sessions = flag.Int("sessions", 0, "max concurrently running adaptive sessions (0 = default)")
		tenRate  = flag.Float64("tenant-rate", 0, "per-tenant quota in jobs/second, keyed on the X-JRPM-Tenant header (0 = no quotas)")
		tenBurst = flag.Float64("tenant-burst", 0, "per-tenant quota burst capacity (0 = max(1, -tenant-rate))")
		pprofAt  = flag.String("pprof", "", "serve Go pprof on this extra address (e.g. localhost:6060); empty = off")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		spanCap  = flag.Int("span-cap", telemetry.DefaultCollectorCap, "span collector ring capacity")
		registry = flag.String("registry", "", "fleet registry address to self-register with (requires -worker)")
		adverts  = flag.String("advertise", "", "address advertised to the fleet (default derives from -addr)")
		fleetTTL = flag.Duration("fleet-ttl", fleet.DefaultTTL, "liveness TTL granted by this daemon's fleet registry")
		maxTrace = flag.Int64("max-trace-mb", 0, "reject trace uploads larger than this many MiB (0 = default cap)")
		version  = flag.Bool("version", false, "print module + trace-format version and exit")
	)
	flag.Parse()
	if *version {
		service.PrintVersion(os.Stdout, "jrpmd")
		return
	}

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jrpmd:", err)
		os.Exit(2)
	}
	logger := telemetry.NewLogger(os.Stderr, level)

	pool := service.NewPool(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cache,
		TraceCacheBytes: *trcMB << 20,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTO,
		LongPoll:        *longPoll,
		MaxSessions:     *sessions,
		TenantRate:      *tenRate,
		TenantBurst:     *tenBurst,
	})
	tracer := telemetry.NewTracer(telemetry.NewCollector(*spanCap))
	pool.SetTracer(tracer)
	pool.SetLogger(logger)
	api := service.NewServer(pool)
	api.Tracer = tracer
	mux := http.NewServeMux()
	api.Register(mux)
	if *worker {
		cw := cluster.NewWorker(pool)
		cw.MaxTraceBytes = *maxTrace << 20
		cw.Register(mux)
		cw.RegisterProm(pool.Registry())
		api.ExtraMetrics = func() any { return cw.Snapshot() }
	}

	// Every jrpmd hosts the fleet surface: a membership registry and a
	// streaming sweep API whose coordinator schedules over the registry's
	// live members. A daemon that never sees a registration simply has an
	// empty fleet.
	freg := fleet.NewRegistry(fleet.RegistryOptions{TTL: *fleetTTL, Logger: logger})
	freg.Register(mux)
	freg.RegisterProm(pool.Registry())
	coord := cluster.New(cluster.Options{
		Membership:           freg,
		DisableLocalFallback: true, // a hub must not silently replay grids itself
		Logger:               logger,
	})
	sweepSrv := sweeps.NewServer(coord, sweeps.Options{Logger: logger})
	sweepSrv.Register(mux)
	sweepSrv.RegisterProm(pool.Registry())

	srv := &http.Server{
		Addr:              *addr,
		Handler:           telemetry.Middleware(tracer, mux),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Fleet worker mode: keep this daemon registered (and heartbeating)
	// with a remote registry until shutdown begins, then deregister
	// before the drain so the fleet stops routing shards here first.
	agentDone := make(chan struct{})
	close(agentDone)
	if *registry != "" {
		if !*worker {
			fmt.Fprintln(os.Stderr, "jrpmd: -registry requires -worker (nothing to offer the fleet otherwise)")
			os.Exit(2)
		}
		self := *adverts
		if self == "" {
			self = *addr
		}
		if strings.HasPrefix(self, ":") {
			self = "localhost" + self
		}
		agent := &fleet.Agent{
			Registry: *registry,
			Self:     fleet.Member{Addr: self, Module: jrpm.Version, TraceFormat: trace.Version},
			Logger:   logger,
		}
		agentDone = make(chan struct{})
		go func() {
			defer close(agentDone)
			agent.Run(ctx)
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if *pprofAt != "" {
		go servePprof(*pprofAt, logger, errc)
	}
	mode := "service"
	if *worker {
		mode = "service+worker"
	}
	logger.Info("jrpmd: serving",
		"addr", *addr, "mode", mode,
		"workers", pool.Config().Workers,
		"queue", pool.Config().QueueDepth,
		"cache", pool.Config().CacheSize)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "jrpmd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		logger.Info("jrpmd: signal received, draining", "deadline", *drain)
		// The fleet agent deregisters first so the membership view stops
		// routing new shards here while in-flight jobs finish.
		<-agentDone
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Order matters: the pool first (stop accepting, let in-flight jobs
		// finish), then the HTTP server, so a client long-polling its job's
		// completion still gets the answer.
		if pool.Drain(drainCtx) {
			logger.Info("jrpmd: queue drained cleanly")
		} else {
			logger.Warn("jrpmd: drain deadline hit; interrupting remaining jobs")
		}
		if err := srv.Shutdown(drainCtx); err != nil {
			srv.Close() //nolint:errcheck // best effort after deadline
		}
		flushMetrics(pool, logger)
	}
}

// servePprof runs net/http/pprof on its own listener so profiling
// traffic (and its security surface) stays off the service port. The
// handlers are mounted explicitly rather than via the package's
// DefaultServeMux side-effect import.
func servePprof(addr string, logger *telemetry.Logger, errc chan<- error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	logger.Info("jrpmd: pprof listener up", "addr", addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		errc <- fmt.Errorf("pprof listener: %w", err)
	}
}

// flushMetrics logs a final metrics snapshot so operators keep the
// run's totals even when the scrape endpoint has gone away.
func flushMetrics(pool *service.Pool, logger *telemetry.Logger) {
	m := pool.Metrics()
	final := map[string]int64{
		"jobs_submitted":   m.JobsSubmitted.Load(),
		"jobs_completed":   m.JobsCompleted.Load(),
		"jobs_failed":      m.JobsFailed.Load(),
		"jobs_canceled":    m.JobsCanceled.Load(),
		"jobs_rejected":    m.JobsRejected.Load(),
		"cache_hits":       m.CacheHits.Load(),
		"cache_misses":     m.CacheMisses.Load(),
		"cycles_simulated": m.CyclesSimulated.Load(),
	}
	b, err := json.Marshal(final)
	if err != nil {
		logger.Error("jrpmd: final metrics", "err", err)
		return
	}
	logger.Info("jrpmd: final metrics", "snapshot", string(b))
}
