// Package service is the jrpmd subsystem: a resident profiling service
// that shards Jrpm pipeline jobs across a worker pool, caches compiled
// artifacts by content address, and exposes an HTTP JSON API with
// operational metrics. See README.md "Running as a service".
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jrpm"
	"jrpm/internal/freelist"
	"jrpm/internal/hydra"
	"jrpm/internal/runs"
	"jrpm/internal/session"
	"jrpm/internal/telemetry"
	"jrpm/internal/trace"
	"jrpm/internal/vmsim"
)

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity; the HTTP layer maps it to 429.
var ErrQueueFull = errors.New("service: job queue full")

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("service: pool stopped")

// ErrServerDraining marks jobs that were accepted but never started
// because the daemon shut down first. They are failed (not silently
// dropped) so a client polling job status learns the job must be
// resubmitted elsewhere.
var ErrServerDraining = errors.New("service: server draining; job was queued but never started")

// Config sizes the pool.
type Config struct {
	// Workers is the number of concurrent pipeline executors; <= 0 means
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of jobs waiting to run; <= 0 means 64.
	QueueDepth int
	// CacheSize bounds the artifact cache, in compiled programs; <= 0
	// means 128.
	CacheSize int
	// TraceCacheBytes bounds the recorded-trace cache, in bytes of trace
	// data; <= 0 means 256 MiB.
	TraceCacheBytes int64
	// DefaultTimeout applies to jobs that do not set timeout_ms; <= 0
	// means 60s. MaxTimeout caps every job; <= 0 means 10m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// LongPoll bounds a GET /v1/jobs/{id}?wait=1 or
	// /v1/sessions/{id}?wait=1 long-poll; past it the server answers 202
	// with a retry hint instead of holding the connection. <= 0 means 30s.
	LongPoll time.Duration
	// MaxSessions bounds concurrently running adaptive sessions
	// (POST /v1/sessions); <= 0 means session.DefaultMaxSessions.
	MaxSessions int
	// TenantRate and TenantBurst configure the per-tenant token-bucket
	// quota (jobs/second and burst capacity), keyed on the X-JRPM-Tenant
	// header. TenantRate <= 0 disables quotas; TenantBurst <= 0 with a
	// rate set means a burst of max(1, TenantRate).
	TenantRate  float64
	TenantBurst float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.TraceCacheBytes <= 0 {
		c.TraceCacheBytes = 256 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.LongPoll <= 0 {
		c.LongPoll = 30 * time.Second
	}
	if c.TenantRate > 0 && c.TenantBurst <= 0 {
		c.TenantBurst = c.TenantRate
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	return c
}

// retainFinished bounds the terminal jobs a pool keeps for GET
// /v1/jobs/{id}: sixteen queue-fulls, so a client has the time the queue
// takes to turn over sixteen times to collect its result. Past it the
// oldest finished jobs are forgotten and answer 404 like an unknown id;
// queued and running jobs are always kept.
func (c Config) retainFinished() int { return 16 * c.QueueDepth }

// Pool runs pipeline jobs on a fixed set of workers fed by a bounded
// queue. One bad program cannot take the daemon down: each job runs
// under its own context (timeout + cancellation) and a panic inside the
// pipeline is recovered into a failed job.
type Pool struct {
	cfg      Config
	reg      *telemetry.Registry
	metrics  *Metrics
	cache    *Cache
	traces   *TraceCache
	inputs   *inputMemo
	sessions *session.Manager
	smetrics *session.Metrics
	tracer   *telemetry.Tracer // nil = job spans disabled

	queue    *tenantQueue
	jobs     *runs.Table[*Job] // live: accepted and not yet terminal
	seq      atomic.Int64
	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	stopped  atomic.Bool // no new submissions
	shutdown atomic.Bool // workers torn down

	// testHook, when set, runs at the start of every job execution; tests
	// use it to inject panics and stalls.
	testHook func(*Job)
}

// NewPool creates and starts a pool.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	reg := telemetry.NewRegistry()
	smetrics := session.NewMetrics(reg)
	p := &Pool{
		cfg:      cfg,
		reg:      reg,
		metrics:  newMetrics(reg),
		cache:    NewCache(cfg.CacheSize),
		traces:   NewTraceCache(cfg.TraceCacheBytes),
		inputs:   newInputMemo(inputMemoBytes),
		sessions: session.NewManager(cfg.MaxSessions, smetrics, nil),
		smetrics: smetrics,
		queue:    newTenantQueue(cfg.QueueDepth, cfg.TenantRate, cfg.TenantBurst),
		jobs:     runs.New[*Job](0, cfg.retainFinished()),
	}
	p.registerPoolGauges(reg)
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// Metrics exposes the pool's counters.
func (p *Pool) Metrics() *Metrics { return p.metrics }

// Registry exposes the pool's metrics registry — the Prometheus
// exposition reads it, and co-resident subsystems (the cluster worker)
// register their own instruments in it.
func (p *Pool) Registry() *telemetry.Registry { return p.reg }

// SetTracer enables per-job spans: each executed job gets a "job.run"
// span parented to the trace that submitted it (captured from the
// submit context). Set before serving traffic; a nil tracer keeps job
// execution span-free. Sessions started afterwards trace their epochs
// with the same tracer.
func (p *Pool) SetTracer(tr *telemetry.Tracer) {
	p.tracer = tr
	p.sessions.SetTracer(tr)
}

// SetLogger routes the session subsystem's decision logs (promotions,
// demotions, epoch summaries) to l. Set before serving traffic.
func (p *Pool) SetLogger(l *telemetry.Logger) { p.sessions.SetLogger(l) }

// Sessions exposes the adaptive-session manager.
func (p *Pool) Sessions() *session.Manager { return p.sessions }

// Draining reports whether the pool is refusing new submissions (Drain
// or Stop has begun). GET /v1/readyz turns this into a 503.
func (p *Pool) Draining() bool { return p.stopped.Load() }

// Cache exposes the artifact cache (read-mostly; the server reports its
// size).
func (p *Pool) Cache() *Cache { return p.cache }

// Traces exposes the recorded-trace cache.
func (p *Pool) Traces() *TraceCache { return p.traces }

// Config returns the effective (defaulted) configuration.
func (p *Pool) Config() Config { return p.cfg }

// QueueLength is the number of jobs currently waiting for a worker.
func (p *Pool) QueueLength() int { return p.queue.length() }

// Tenants snapshots the per-tenant queue/quota stats for /v1/metrics.
func (p *Pool) Tenants() []TenantSnapshot { return p.queue.snapshot() }

// Active is the number of jobs accepted and not yet terminal (queued or
// executing); Drain waits for it to reach zero.
func (p *Pool) Active() int { return p.jobs.Live() }

// Submit validates and enqueues a job. It fails fast: an unresolvable
// request (unknown workload, both/neither of source+workload, malformed
// analyze_trace combinations) is rejected here with an error rather than
// becoming a failed job.
func (p *Pool) Submit(req Request) (*Job, error) {
	return p.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit plus span propagation: if ctx carries an active
// span (the HTTP server span of the submitting request), its identity
// is captured on the job so the asynchronous execution joins the
// submitter's distributed trace.
func (p *Pool) SubmitCtx(ctx context.Context, req Request) (*Job, error) {
	if p.stopped.Load() {
		return nil, ErrStopped
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	if req.Tenant == "" {
		req.Tenant = DefaultTenant
	}
	now := time.Now()
	job := &Job{
		ID:          fmt.Sprintf("j%08d", p.seq.Add(1)),
		Req:         req,
		Tenant:      req.Tenant,
		state:       StateQueued,
		submitted:   now,
		traceparent: telemetry.ContextTraceparent(ctx),
		done:        make(chan struct{}),
	}
	// In the table before a worker can see it, so that its Finish
	// follows its Add.
	p.jobs.Add(job.ID, job)
	if err := p.queue.admit(job, now); err != nil {
		p.jobs.Remove(job.ID)
		if !errors.Is(err, ErrQueueFull) { // *QuotaError
			p.metrics.QuotaShed.Add(1)
		}
		p.metrics.JobsRejected.Add(1)
		return nil, err
	}
	p.metrics.JobsSubmitted.Add(1)
	return job, nil
}

// Get returns a job by id.
func (p *Pool) Get(id string) (*Job, bool) { return p.jobs.Get(id) }

// Cancel aborts a job by id, reporting what it did: CancelNoop means
// the job had already reached a terminal state (the HTTP layer answers
// 409).
func (p *Pool) Cancel(id string) (CancelOutcome, error) {
	j, ok := p.Get(id)
	if !ok {
		return CancelNoop, fmt.Errorf("no job %q", id)
	}
	// On CancelRequested the worker records the cancellation.
	out := j.Cancel()
	if out == CancelQueued {
		// Free its queue slot now; a worker that already took the job
		// finds it canceled and drops it.
		p.queue.remove(j)
		p.metrics.JobsCanceled.Add(1)
		p.jobs.Finish(j.ID)
	}
	return out, nil
}

// Drain gracefully shuts the pool down: new submissions are refused
// immediately, but jobs already queued or running are allowed to finish
// until ctx expires, at which point Drain falls back to Stop semantics
// (interrupt and cancel whatever is left). It reports whether the drain
// completed cleanly.
func (p *Pool) Drain(ctx context.Context) bool {
	p.stopped.Store(true) // refuse new submissions; workers keep consuming
	clean := true
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for p.jobs.Live() > 0 {
		select {
		case <-ctx.Done():
			clean = false
		case <-tick.C:
			continue
		}
		break
	}
	p.stop()
	return clean
}

// Stop drains the pool: no new submissions are accepted, queued jobs are
// canceled, running jobs are interrupted via their contexts, and all
// workers are joined.
func (p *Pool) Stop() {
	p.stopped.Store(true)
	p.stop()
}

func (p *Pool) stop() {
	if p.shutdown.Swap(true) {
		return
	}
	// Sessions interrupt at the VM's next poll window, so a generous
	// bound only matters if one wedges.
	stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	p.sessions.StopAll(stopCtx)
	cancel()
	p.cancel()
	p.wg.Wait()
	// Workers are gone; jobs still queued will never start. Fail them
	// loudly with ErrServerDraining (not a silent drop, not "canceled" —
	// the client did nothing) so a status poll says to resubmit.
	for _, j := range p.queue.drain() {
		j.failIfQueued(ErrServerDraining.Error(), func() {
			p.metrics.DrainFailed.Add(1)
			p.metrics.JobsFailed.Add(1)
			p.jobs.Finish(j.ID)
		})
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-p.queue.readyc():
			if p.ctx.Err() != nil {
				// Shutdown raced the wake-up: leave the job in its lane
				// for stop()'s drain pass (ErrServerDraining) instead of
				// starting it against a dead context.
				return
			}
			if j := p.queue.pop(); j != nil {
				p.run(j)
			}
		}
	}
}

// run executes one job with deadline, timeout, cancellation and panic
// isolation.
func (p *Pool) run(j *Job) {
	// A request-level deadline covers the job's whole life from
	// submission — queue wait included. If it already passed while the
	// job waited for a worker, fail fast without burning VM time.
	var deadline time.Time
	if j.Req.DeadlineMs > 0 {
		deadline = j.submitted.Add(time.Duration(j.Req.DeadlineMs) * time.Millisecond)
		if !time.Now().Before(deadline) {
			j.failIfQueued(fmt.Sprintf("deadline (%dms) expired while queued", j.Req.DeadlineMs), func() {
				p.metrics.DeadlineExpired.Add(1)
				p.metrics.JobsFailed.Add(1)
				p.jobs.Finish(j.ID)
			})
			return
		}
	}
	timeout := p.cfg.DefaultTimeout
	if j.Req.TimeoutMs > 0 {
		timeout = time.Duration(j.Req.TimeoutMs) * time.Millisecond
	}
	if timeout > p.cfg.MaxTimeout {
		timeout = p.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeoutCause(p.ctx, timeout,
		fmt.Errorf("job timeout (%s) exceeded", timeout))
	defer cancel()
	var dcause error
	if !deadline.IsZero() {
		dcause = fmt.Errorf("job deadline (%dms past submission) exceeded", j.Req.DeadlineMs)
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadlineCause(ctx, deadline, dcause)
		defer dcancel()
	}

	wait, ok := j.start(cancel)
	if !ok {
		return // canceled while queued; Cancel dropped the live count
	}
	p.metrics.QueueWait.Observe(wait)

	var sp *telemetry.Span
	if p.tracer != nil {
		// The job runs asynchronously from its submission; re-attach
		// the submitter's span context so this span lands in the same
		// distributed trace as the POST that created the job.
		ctx = telemetry.WithTracer(ctx, p.tracer)
		ctx = telemetry.WithRemoteParentString(ctx, j.traceparent)
		ctx, sp = telemetry.StartSpan(ctx, "job.run")
		sp.SetAttr("job.id", j.ID)
		sp.SetInt("job.queue_wait_us", wait.Microseconds())
	}
	began := time.Now()

	var res *Result
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		res, err = p.execute(ctx, j)
	}()
	p.metrics.RunTime.Observe(time.Since(began))

	state, errMsg := StateDone, ""
	switch {
	case err == nil:
		p.metrics.JobsCompleted.Add(1)
	case errors.Is(err, context.Canceled):
		p.metrics.JobsCanceled.Add(1)
		state, errMsg, res = StateCanceled, "canceled", nil
	default:
		if dcause != nil && context.Cause(ctx) == dcause {
			p.metrics.DeadlineExpired.Add(1)
		}
		p.metrics.JobsFailed.Add(1)
		state, errMsg, res = StateFailed, err.Error(), nil
	}
	// finish wakes the job's waiters, so everything they may read about
	// the finished job — its tenant's completion count, its job.run span
	// and its place among the retained finished jobs — is recorded first.
	p.queue.completed(j.Tenant)
	sp.SetAttr("job.state", string(state))
	sp.Fail(err)
	sp.End()
	p.jobs.Finish(j.ID)
	j.finish(state, res, errMsg)
}

// execute runs one job. Pipeline jobs resolve (a workload's input comes
// from the pool's memo), hit or fill the artifact cache, then profile —
// or, with speculate, profile and speculate (Compiled.Run) — in one VM
// execution, with the trace writer attached when the job records;
// analyze_trace jobs replay a cached recording under each requested
// machine configuration without touching the VM.
func (p *Pool) execute(ctx context.Context, j *Job) (*Result, error) {
	if p.testHook != nil {
		p.testHook(j)
	}
	if j.Req.AnalyzeTrace != "" {
		return p.analyzeTrace(ctx, j.Req)
	}
	src, in, err := p.resolve(&j.Req)
	if err != nil {
		return nil, err
	}
	opts := j.Req.options()

	compiled, hit, err := p.Compile(src, opts)
	if err != nil {
		return nil, err
	}

	// One traced run serves the whole job: a Record job's trace writer
	// listens to it, writing into a reused buffer, and a speculate job's
	// recorder reads its event log.
	var buf *bytes.Buffer
	var tw *trace.Writer
	var extra []vmsim.Listener
	if j.Req.Record {
		buf = traceBufs.Get()
		defer releaseTraceBuf(buf)
		if tw, err = trace.NewWriter(buf, compiled.TraceHash()); err != nil {
			return nil, err
		}
		extra = []vmsim.Listener{tw}
	}
	var pr *jrpm.ProfileResult
	var sr *jrpm.SpeculateResult
	if j.Req.Speculate {
		if sr, err = compiled.Run(ctx, in, opts, nil, extra...); err != nil {
			return nil, err
		}
		pr = sr.Profile
	} else if pr, err = compiled.Profile(ctx, in, opts, extra...); err != nil {
		return nil, err
	}
	p.metrics.CyclesSimulated.Add(pr.TracedCycles)

	res := buildResult(pr, hit)
	if tw != nil {
		sum := pr.TraceSummary()
		if err := tw.Finish(sum); err != nil {
			return nil, err
		}
		// The artifact gets its own copy at the trace's final size. Put
		// would keep the reused buffer itself (it copies only a buffer
		// with much spare capacity), and the next record job would
		// overwrite the cached trace.
		data := bytes.Clone(buf.Bytes())
		res.TraceBytes = int64(len(data))
		res.TraceKey = p.traces.Put(&TraceArtifact{Data: data, Compiled: compiled, Summary: sum})
	}
	if sr != nil {
		if sr.RecordRuns == 1 { // the event log went over its bound
			p.metrics.CyclesSimulated.Add(pr.TracedCycles)
		}
		mergeSpeculation(res, sr)
	}
	return res, nil
}

// traceBufs holds idle trace buffers for record jobs.
var traceBufs freelist.List[bytes.Buffer]

// traceKeepBytes bounds the trace an idle buffer may keep; a buffer
// grown by a larger recording is left to the collector. A default-corpus
// program's recording is about 9 KB.
const traceKeepBytes = 1 << 20

// releaseTraceBuf empties buf and gives it back to the free list unless
// it outgrew traceKeepBytes.
func releaseTraceBuf(buf *bytes.Buffer) {
	if buf.Cap() <= traceKeepBytes {
		buf.Reset()
		traceBufs.Put(buf)
	}
}

// analyzeTrace executes the trace-analysis job kind: look up the cached
// recording and fan its replay across the requested machine
// configurations. No VM execution happens here — the whole job is
// replays of the stored event stream.
func (p *Pool) analyzeTrace(ctx context.Context, req Request) (*Result, error) {
	art, ok := p.traces.Get(req.AnalyzeTrace)
	if !ok {
		return nil, fmt.Errorf("no cached trace %q (record one with \"record\": true)", req.AnalyzeTrace)
	}
	if art.Compiled == nil {
		// The trace was pushed raw over PUT /v1/traces (cluster shipping)
		// rather than recorded here, so no compiled program rides with it.
		return nil, fmt.Errorf("trace %q has no attached program (pushed, not recorded); use the cluster shard API", req.AnalyzeTrace)
	}
	base := hydra.DefaultConfig()
	tcs := req.Configs
	if len(tcs) == 0 {
		tcs = []TraceConfig{{}}
	}
	cfgs := make([]hydra.Config, len(tcs))
	for i, tc := range tcs {
		cfgs[i] = tc.apply(base)
	}
	res := &Result{
		TraceKey:     art.Key,
		TraceBytes:   int64(len(art.Data)),
		CleanCycles:  art.Summary.CleanCycles,
		TracedCycles: art.Summary.TracedCycles,
		CacheHit:     true,
		Sweep:        make([]SweepRow, 0, len(cfgs)),
	}
	if res.CleanCycles > 0 {
		res.Slowdown = float64(res.TracedCycles) / float64(res.CleanCycles)
	}
	for i, o := range art.Compiled.SweepTrace(ctx, art.Data, cfgs, jrpm.DefaultOptions(), 0) {
		if o.Err != nil {
			return nil, fmt.Errorf("replay config %d: %w", i, o.Err)
		}
		res.Sweep = append(res.Sweep, SweepRow{
			Banks:            cfgs[i].Tracer.Banks,
			HeapStoreLines:   cfgs[i].Tracer.HeapStoreLines,
			LoadLines:        cfgs[i].Buffers.LoadLines,
			StoreLines:       cfgs[i].Buffers.StoreLines,
			SelectedLoops:    o.Analysis.SelectedLoopIDs(),
			PredictedSpeedup: o.Analysis.PredictedSpeedup(),
		})
	}
	return res, nil
}
