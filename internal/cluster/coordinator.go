package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"jrpm"
	"jrpm/internal/core"
	"jrpm/internal/fleet"
	"jrpm/internal/httpjson"
	"jrpm/internal/hydra"
	"jrpm/internal/service"
	"jrpm/internal/telemetry"
	"jrpm/internal/trace"
)

// Options configures a coordinator with what a deployment sets.
type Options struct {
	// Membership supplies the worker set: fleet.Static for a fixed
	// list, a fleet registry for a living fleet. The scheduler
	// re-snapshots it for the whole duration of a sweep: workers that
	// join mid-sweep are admitted and take shards from the queue,
	// workers that disappear are retired and their in-flight shards
	// retried elsewhere. Nil means every sweep runs locally.
	Membership fleet.Membership
	// DisableLocalFallback turns exhausted-shard and no-worker local
	// execution into hard errors.
	DisableLocalFallback bool
	// Logger receives scheduling events (worker exclusions, shard
	// failures, breaker trips, fallbacks); nil is silent. All methods of
	// a nil *telemetry.Logger are no-ops, so call sites don't guard.
	Logger *telemetry.Logger
}

// The scheduler's timing and fault policy. New copies all but the two
// timeouts into the coordinator's fields, which in-package tests lower
// to make faults cheap to provoke.
const (
	// membershipInterval is the fleet re-snapshot period.
	membershipInterval = 250 * time.Millisecond
	// maxAttempts bounds dispatch attempts per shard before giving up
	// on the fleet (local fallback, unless disabled).
	maxAttempts = 4
	// retryBase and retryMax shape the exponential backoff between
	// attempts: base*2^n with ±50% jitter, capped.
	retryBase = 50 * time.Millisecond
	retryMax  = 2 * time.Second
	// breakerThreshold consecutive failures open a worker's circuit
	// breaker for breakerCooldown.
	breakerThreshold = 3
	breakerCooldown  = 2 * time.Second
	// sentinels is the number of leading shards re-executed on a second
	// worker for the determinism check.
	sentinels = 1
	// shardTimeout bounds one shard round trip; a slow or hung worker
	// is handled by this timeout plus a retry.
	shardTimeout = 60 * time.Second
	// pingTimeout bounds one version-and-readiness probe.
	pingTimeout = 2 * time.Second
)

// Coordinator drives distributed sweeps. It is stateless between Sweep
// calls except for the per-worker trace-residency bookkeeping (bounded,
// and dropped when a worker leaves the fleet), so one coordinator can
// run many grids against the same fleet and ship each recording to each
// worker at most once.
type Coordinator struct {
	opts Options

	// The policy constants above, bar the timeouts; tests lower them on
	// the coordinator they built. A sentinel count of 0 disables the
	// check.
	membershipInterval time.Duration
	maxAttempts        int
	retryBase          time.Duration
	retryMax           time.Duration
	breakerThreshold   int
	breakerCooldown    time.Duration
	sentinels          int

	clientMu sync.Mutex
	clients  map[string]*workerClient // by member ID, persistent across sweeps
}

// New builds a coordinator over opts.Membership.
func New(opts Options) *Coordinator {
	return &Coordinator{
		opts:               opts,
		membershipInterval: membershipInterval,
		maxAttempts:        maxAttempts,
		retryBase:          retryBase,
		retryMax:           retryMax,
		breakerThreshold:   breakerThreshold,
		breakerCooldown:    breakerCooldown,
		sentinels:          sentinels,
		clients:            map[string]*workerClient{},
	}
}

// client resolves (and caches) the HTTP client for a fleet member. A
// member that re-registers under the same ID with a new address gets a
// fresh client, dropping the stale residency memo with it.
func (c *Coordinator) client(m fleet.Member) *workerClient {
	base := httpjson.BaseURL(m.Addr)
	c.clientMu.Lock()
	defer c.clientMu.Unlock()
	wc := c.clients[m.ID]
	if wc == nil || wc.base != base {
		wc = newWorkerClient(m.ID, base)
		c.clients[m.ID] = wc
	}
	return wc
}

// dropClient forgets a member's client state entirely (fleet
// departure): the residency memo for a dead worker is useless, and
// keeping it across churning worker generations would grow without
// bound.
func (c *Coordinator) dropClient(id string) {
	c.clientMu.Lock()
	delete(c.clients, id)
	c.clientMu.Unlock()
}

func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.retryBase
	for i := 1; i < attempt && d < c.retryMax; i++ {
		d *= 2
	}
	if d > c.retryMax {
		d = c.retryMax
	}
	return d/2 + rand.N(d)
}

// probe asks a worker for its trace-format version and, when the
// format matches the coordinator's, its readiness: a nil error with a
// matching format means the worker may take shards. A draining worker
// answers errDraining. Startup preflight and mid-sweep admission both
// probe through here and differ only in what they make of a mismatch.
func (c *Coordinator) probe(ctx context.Context, wc *workerClient) (VersionInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, pingTimeout)
	defer cancel()
	vi, err := wc.version(ctx)
	if err != nil || vi.TraceFormat != trace.Version {
		return vi, err
	}
	return vi, wc.ready(ctx)
}

// preflight probes every member. Unreachable or draining workers are
// excluded (they may come back; the breaker would exclude them
// anyway); reachable workers with a different trace-format version are
// refusals — mixing formats corrupts results, so they are reported as
// hard errors.
func (c *Coordinator) preflight(ctx context.Context, members []fleet.Member) (healthy []fleet.Member, refusals []error) {
	vis := make([]VersionInfo, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, wc *workerClient) {
			defer wg.Done()
			vis[i], errs[i] = c.probe(ctx, wc)
		}(i, c.client(m))
	}
	wg.Wait()
	// Iterate in membership order so the worker list (and with it the
	// order worker loops start in) is deterministic.
	for i, m := range members {
		switch {
		case errors.Is(errs[i], errDraining):
			c.opts.Logger.WarnCtx(ctx, "cluster: worker draining, excluded", "worker", m.ID)
		case errs[i] != nil:
			c.opts.Logger.WarnCtx(ctx, "cluster: worker unreachable, excluded",
				"worker", m.ID, "err", errs[i])
		case vis[i].TraceFormat != trace.Version:
			refusals = append(refusals, fmt.Errorf(
				"worker %s: trace format v%d, coordinator speaks v%d (module %q) — refusing mixed-format worker",
				m.ID, vis[i].TraceFormat, trace.Version, vis[i].Module))
		default:
			healthy = append(healthy, m)
		}
	}
	return healthy, refusals
}

// Sweep runs the grid: shard by store geometry, dispatch from one
// queue, retry, verify, merge. The returned outcomes are byte-identical
// (under Canonical) to EncodeOutcomes of a local trace.Sweep of every
// (trace, config) cell.
//
// When ctx carries a telemetry tracer (telemetry.WithTracer), the whole
// sweep is recorded as one distributed trace: a cluster.sweep root span
// with shard.dispatch / trace.push / shard.local children, propagated
// to workers over traceparent headers so their server-side spans join
// the same trace.
func (c *Coordinator) Sweep(ctx context.Context, grid Grid) (*Result, error) {
	return c.SweepStream(ctx, grid, nil)
}

// SweepStream is Sweep with a live row feed: onRow is invoked exactly
// once per (trace, config) cell, as the shard owning the cell
// completes, with the same row that later lands in Result.Outcomes.
// Rows arrive in completion order, not grid order. Callbacks are
// serialized (never concurrent) but must not block for long — they run
// on the scheduling path. A nil onRow is Sweep.
func (c *Coordinator) SweepStream(ctx context.Context, grid Grid, onRow func(trace, config int, row OutcomeRow)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := telemetry.StartSpan(ctx, "cluster.sweep")
	sp.SetInt("sweep.traces", int64(len(grid.Traces)))
	sp.SetInt("sweep.configs", int64(len(grid.Configs)))
	res, err := c.sweep(ctx, grid, onRow)
	sp.Fail(err)
	sp.End()
	return res, err
}

func (c *Coordinator) sweep(ctx context.Context, grid Grid, onRow func(int, int, OutcomeRow)) (*Result, error) {
	if len(grid.Traces) == 0 {
		return nil, errors.New("cluster: grid has no traces")
	}
	if len(grid.Configs) == 0 {
		return nil, errors.New("cluster: grid has no configs")
	}
	for i, gt := range grid.Traces {
		if len(gt.Data) == 0 {
			return nil, fmt.Errorf("cluster: trace %d (%s) has no recording bytes", i, gt.Name)
		}
	}
	// Every worker would refuse an oversized grid with the same 400;
	// refuse it once, here, before anything is dispatched.
	if err := core.CheckGrid(grid.Configs); err != nil {
		return nil, err
	}
	grid.Opts = jrpm.Normalize(grid.Opts)

	// In-process, one task per trace: trace.Sweep deals the geometry
	// groups to its own replay workers, each decoding the recording once,
	// where one task per shard would decode it once per geometry.
	runLocal := func(degraded bool) (*Result, error) {
		all := make([]int, len(grid.Configs))
		for i := range all {
			all[i] = i
		}
		return newSched(c, &grid, [][]int{all}, onRow).runLocal(ctx, degraded)
	}
	if c.opts.Membership == nil {
		return runLocal(false)
	}
	members, merr := c.opts.Membership.Members(ctx)
	if merr != nil {
		if c.opts.DisableLocalFallback {
			return nil, fmt.Errorf("%w: membership: %v", ErrNoWorkers, merr)
		}
		c.opts.Logger.WarnCtx(ctx, "cluster: membership unavailable, running grid locally", "err", merr)
		return runLocal(true)
	}
	if len(members) == 0 {
		if c.opts.DisableLocalFallback {
			return nil, fmt.Errorf("%w: the fleet has no live members", ErrNoWorkers)
		}
		return runLocal(true)
	}
	healthy, refusals := c.preflight(ctx, members)
	if len(healthy) == 0 {
		if len(refusals) > 0 {
			return nil, errors.Join(refusals...)
		}
		if c.opts.DisableLocalFallback {
			return nil, fmt.Errorf("%w: all %d workers unreachable", ErrNoWorkers, len(members))
		}
		return runLocal(true)
	}
	if len(refusals) > 0 {
		// Some workers are usable but others speak a different trace
		// format: refuse loudly rather than silently shrinking the fleet.
		return nil, errors.Join(refusals...)
	}
	telemetry.SpanFrom(ctx).SetInt("sweep.workers", int64(len(healthy)))

	s := newSched(c, &grid, core.Groups(grid.Configs), onRow)
	if err := s.run(ctx, healthy); err != nil {
		return nil, err
	}
	return s.result(ctx, false)
}

// SweepRecording adapts Sweep to the one-recording signature used by the
// internal/experiments ablation grids (experiments.GridSweeper).
func (c *Coordinator) SweepRecording(ctx context.Context, name, source string, data []byte, cfgs []hydra.Config, opts jrpm.Options) ([]OutcomeRow, error) {
	res, err := c.Sweep(ctx, Grid{
		Traces:  []GridTrace{{Name: name, Source: source, Data: data}},
		Configs: cfgs,
		Opts:    opts,
	})
	if err != nil {
		return nil, err
	}
	return res.Outcomes[0], nil
}

// Local runs sweep grids in-process with trace.Sweep; it satisfies the
// same GridSweeper shape as a Coordinator, so callers switch between
// local and distributed execution with one value.
type Local struct {
	// Workers bounds replay parallelism; <= 0 means GOMAXPROCS.
	Workers int
}

// SweepRecording compiles the program through the process's artifact
// cache and replays the recording under every configuration locally.
func (l Local) SweepRecording(ctx context.Context, name, source string, data []byte, cfgs []hydra.Config, opts jrpm.Options) ([]OutcomeRow, error) {
	opts = jrpm.Normalize(opts)
	compiled, err := Compile(source, opts)
	if err != nil {
		return nil, compileError(name, err)
	}
	return EncodeOutcomes(compiled.SweepTrace(ctx, data, cfgs, opts, l.Workers)), nil
}

// artifactCacheSize bounds the process's artifact cache in programs; it
// is the job pool's default cache size.
const artifactCacheSize = 128

// artifacts holds the programs compiled for in-process sweeps, keyed by
// service.CacheKey. A *jrpm.Compiled is read-only after construction, so
// concurrent sweeps share one without copying, as the pool's workers do.
var artifacts = service.NewCache(artifactCacheSize)

// Compile returns src compiled under opts through the process's artifact
// cache, compiling and storing it on a miss; a compile error is returned
// and never cached. Local sweeps, the coordinator's local shards and the
// callers that compile a program before sweeping its recording all
// compile here, so a process compiles each program once; a worker's
// shards compile through its pool's cache (service.Pool.Compile) instead.
func Compile(src string, opts jrpm.Options) (*jrpm.Compiled, error) {
	key := service.CacheKey(src, opts)
	if c, ok := artifacts.Get(key); ok {
		return c, nil
	}
	c, err := jrpm.Compile(src, opts)
	if err != nil {
		return nil, err
	}
	artifacts.Put(key, c)
	return c, nil
}

// compileError is the error a sweep fails with when trace name's source
// does not compile, locally or on a worker.
func compileError(name string, err error) error {
	return fmt.Errorf("cluster: compile %s: %w", name, err)
}

// ---------------------------------------------------------------------------
// Scheduler

// task is one dispatchable shard: the configs of one grid trace that
// share a store geometry, at most core.GroupSize of them, so a worker
// replays it with one decode and one model pass. (A sweep with no
// usable worker runs one task per trace instead.) A sentinel task
// re-executes its primary's configs for the determinism check and never
// merges.
type task struct {
	trace int
	cfgs  []int // grid config indices, ascending

	sentinelOf *task // non-nil on sentinel copies
	sentinel   *task // on a primary: its sentinel copy, queued once it completes

	// avoid is the worker that must not run this copy while another
	// live worker can: the one that just failed it, or for a sentinel
	// the one that ran its primary.
	avoid *schedWorker

	attempts int // finished (failed) attempts
	done     bool
	rows     []OutcomeRow
	by       string // worker that produced rows
}

func (t *task) String() string {
	return fmt.Sprintf("shard (trace %d, %d configs from config %d)", t.trace, len(t.cfgs), t.cfgs[0])
}

// schedWorker is one fleet member's scheduling state for the duration
// of a sweep. A member that leaves is flagged retired; if it comes
// back it gets a fresh schedWorker, so a worker loop's own value never
// changes under it.
type schedWorker struct {
	id           string
	client       *workerClient
	retired      bool
	consecFail   int
	breakerUntil time.Time
	cancel       context.CancelFunc // the attempt in flight, if any
}

type sched struct {
	c       *Coordinator
	grid    *Grid
	keys    []string
	metrics *Metrics
	onRow   func(int, int, OutcomeRow)

	mu            sync.Mutex
	cond          *sync.Cond
	ctx           context.Context
	workers       []*schedWorker // every worker admitted this sweep, retired ones included
	byID          map[string]*schedWorker
	queue         []*task // shards waiting for a worker, in dispatch order
	primaries     []*task
	remaining     int
	sentinelsLeft int
	err           error
	closed        bool
	running       int             // live worker goroutines
	localInflight int             // asynchronous local-fallback executions
	refused       map[string]bool // members refused this sweep (format mismatch)
	timers        []*time.Timer

	emitMu sync.Mutex // serializes onRow callbacks
}

// newSched builds a scheduler whose tasks cut every grid trace by the
// same partition of config indices.
func newSched(c *Coordinator, grid *Grid, parts [][]int, onRow func(int, int, OutcomeRow)) *sched {
	s := &sched{
		c:       c,
		grid:    grid,
		keys:    make([]string, len(grid.Traces)),
		metrics: newMetrics(),
		onRow:   onRow,
		byID:    map[string]*schedWorker{},
		refused: map[string]bool{},
	}
	s.cond = sync.NewCond(&s.mu)
	for ti := range grid.Traces {
		s.keys[ti] = service.TraceKeyOf(grid.Traces[ti].Data)
		for _, cfgs := range parts {
			s.primaries = append(s.primaries, &task{trace: ti, cfgs: cfgs})
		}
	}
	s.remaining = len(s.primaries)
	return s
}

// runLocal executes every task in-process: no workers configured, or
// none usable.
func (s *sched) runLocal(ctx context.Context, degraded bool) (*Result, error) {
	if degraded {
		s.c.opts.Logger.WarnCtx(ctx, "cluster: no usable workers, running grid locally")
	}
	ctx, sp := telemetry.StartSpan(ctx, "sweep.local_grid")
	defer sp.End()
	s.ctx = ctx
	for _, t := range s.primaries {
		if ctx.Err() != nil || s.err != nil {
			break
		}
		s.localShard(t)
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.result(ctx, degraded)
}

// result merges the completed shards into the sweep's Result.
func (s *sched) result(ctx context.Context, degraded bool) (*Result, error) {
	_, msp := telemetry.StartSpan(ctx, "sweep.merge")
	out, err := s.merge()
	msp.Fail(err)
	msp.End()
	if err != nil {
		return nil, err
	}
	return &Result{Outcomes: out, Degraded: degraded, Metrics: s.metrics.Snapshot()}, nil
}

// terminalLocked reports whether worker loops should exit.
func (s *sched) terminalLocked() bool {
	return s.err != nil || s.ctx.Err() != nil || (s.remaining == 0 && s.sentinelsLeft == 0)
}

// liveLocked counts the workers not retired, other than except.
func (s *sched) liveLocked(except *schedWorker) int {
	n := 0
	for _, w := range s.workers {
		if !w.retired && w != except {
			n++
		}
	}
	return n
}

// enqueueLocked queues a shard for the next free worker or, when the
// fleet has no live worker left, strands it. A sentinel goes to the
// front, so the check overlaps the rest of the sweep instead of
// trailing it.
func (s *sched) enqueueLocked(t *task) {
	switch {
	case s.liveLocked(nil) == 0:
		s.strandLocked(t, errors.New("no live workers remain"))
		return
	case t.sentinelOf != nil:
		s.queue = slices.Insert(s.queue, 0, t)
	default:
		s.queue = append(s.queue, t)
	}
	s.cond.Broadcast()
}

// strandLocked settles a shard the fleet cannot run: a sentinel is a
// skipped check, a primary runs locally unless the fallback is
// disabled.
func (s *sched) strandLocked(t *task, cause error) {
	switch {
	case t.sentinelOf != nil:
		s.sentinelsLeft--
	case s.c.opts.DisableLocalFallback:
		if s.err == nil {
			s.err = fmt.Errorf("cluster: %s: %w", t, cause)
		}
	default:
		s.c.opts.Logger.WarnCtx(s.ctx, "cluster: shard cannot run on the fleet, running locally",
			"trace", t.trace, "configs", len(t.cfgs), "cause", cause)
		s.localInflight++
		go func() {
			s.localShard(t)
			s.mu.Lock()
			s.localInflight--
			s.cond.Broadcast()
			s.mu.Unlock()
		}()
	}
	s.cond.Broadcast()
}

// takeLocked removes and returns the first queued shard whose recording
// sw already holds, or else the first shard sw may run; nil when there
// is none. A shard that avoids sw is left for the other live workers.
func (s *sched) takeLocked(sw *schedWorker) *task {
	alone := s.liveLocked(sw) == 0
	pick := -1
	for i, t := range s.queue {
		if t.avoid == sw && !alone {
			continue
		}
		if sw.client.resident(s.keys[t.trace]) {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	if pick < 0 {
		return nil
	}
	t := s.queue[pick]
	s.queue = slices.Delete(s.queue, pick, pick+1)
	return t
}

// next blocks until sw has a shard to run, or the sweep is over, or sw
// has been retired from the fleet.
func (s *sched) next(sw *schedWorker) *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.terminalLocked() || sw.retired {
			return nil
		}
		// Circuit breaker: while open, this worker takes no new work. The
		// sleep is chunked so a completed sweep never waits out a cooldown.
		if wait := time.Until(sw.breakerUntil); wait > 0 {
			s.mu.Unlock()
			select {
			case <-time.After(min(wait, 10*time.Millisecond)):
			case <-s.ctx.Done():
			}
			s.mu.Lock()
			continue
		}
		t := s.takeLocked(sw)
		switch {
		case t == nil:
			s.cond.Wait()
		case t.sentinelOf != nil && t.avoid == sw:
			// Only the primary's own worker is left: the check is skipped,
			// not failed.
			s.sentinelsLeft--
			s.cond.Broadcast()
		default:
			return t
		}
	}
}

// spawnLocked starts sw's dispatch loop.
func (s *sched) spawnLocked(sw *schedWorker) {
	s.running++
	go s.workerLoop(sw)
}

func (s *sched) workerLoop(sw *schedWorker) {
	defer func() {
		s.mu.Lock()
		s.running--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	for {
		t := s.next(sw)
		if t == nil {
			return
		}
		s.metrics.onDispatch(sw.client.name)
		s.attempt(sw, t)
	}
}

// run executes the scheduler over the preflighted members until every
// shard is merged or the sweep failed. The completion signal is the
// task ledger (remaining + sentinelsLeft), not worker-goroutine exit:
// workers come and go while the sweep runs.
func (s *sched) run(ctx context.Context, members []fleet.Member) error {
	s.mu.Lock()
	s.ctx = ctx
	s.queue = slices.Clone(s.primaries)
	if len(members) >= 2 && s.c.sentinels > 0 {
		for _, p := range s.primaries[:min(s.c.sentinels, len(s.primaries))] {
			p.sentinel = &task{trace: p.trace, cfgs: p.cfgs, sentinelOf: p}
			s.sentinelsLeft++
		}
	}
	for _, m := range members {
		sw := &schedWorker{id: m.ID, client: s.c.client(m)}
		s.byID[m.ID] = sw
		s.workers = append(s.workers, sw)
		s.spawnLocked(sw)
	}
	s.mu.Unlock()

	stop := make(chan struct{})
	go func() { // wake sleepers on cancellation
		select {
		case <-ctx.Done():
			s.cond.Broadcast()
		case <-stop:
		}
	}()
	go s.fleetMonitor(stop)

	s.mu.Lock()
	for !s.terminalLocked() {
		s.cond.Wait()
	}
	s.mu.Unlock()
	close(stop)

	s.mu.Lock()
	// Drain straggler goroutines (worker loops see the terminal state
	// and exit; async local fallbacks finish) before merge reads tasks.
	for s.running > 0 || s.localInflight > 0 {
		s.cond.Wait()
	}
	s.closed = true
	for _, tm := range s.timers {
		tm.Stop()
	}
	err := s.err
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// attempt runs one dispatch of t on worker sw and routes the outcome
// through the completion / retry / breaker machinery.
func (s *sched) attempt(sw *schedWorker, t *task) {
	s.mu.Lock()
	if s.terminalLocked() {
		s.mu.Unlock()
		return
	}
	actx, cancel := context.WithTimeout(s.ctx, shardTimeout)
	sw.cancel = cancel
	s.mu.Unlock()

	start := time.Now()
	rows, err := s.execute(actx, sw, t)
	cancel()
	name := sw.client.name
	var rej *rejectError
	if errors.As(err, &rej) {
		if rej.code == codeCompile {
			// The trace's source does not compile: fail the sweep as a
			// local sweep fails, with the same error.
			s.mu.Lock()
			sw.cancel = nil
			if s.err == nil {
				s.err = compileError(s.grid.Traces[t.trace].Name, errors.New(rej.msg))
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		// A 4xx is the worker's deterministic answer for these configs:
		// any worker would give it again, so it becomes the shard's rows
		// instead of a retry.
		s.c.opts.Logger.WarnCtx(s.ctx, "cluster: worker rejected shard",
			"worker", name, "trace", t.trace, "configs", len(t.cfgs), "err", err)
		rows, err = make([]OutcomeRow, len(t.cfgs)), nil
		for i, ci := range t.cfgs {
			rows[i] = OutcomeRow{Cfg: s.grid.Configs[ci], Err: rej.msg}
		}
	}

	s.mu.Lock()
	sw.cancel = nil
	if err == nil {
		sw.consecFail = 0
		s.completeLocked(t, rows, sw)
		s.mu.Unlock()
		s.emit(t)
		s.metrics.onComplete(name, time.Since(start))
		return
	}

	// Failure path.
	var breakerOpened, retried bool
	sw.consecFail++
	if sw.consecFail >= s.c.breakerThreshold && time.Now().After(sw.breakerUntil) {
		sw.breakerUntil = time.Now().Add(s.c.breakerCooldown)
		sw.consecFail = 0 // half-open after cooldown: one probe re-trips it after Threshold more
		breakerOpened = true
	}
	if s.ctx.Err() != nil {
		s.cond.Broadcast()
		s.mu.Unlock()
		s.metrics.onFailure(name)
		return
	}
	t.attempts++
	attempts := t.attempts
	if attempts < s.c.maxAttempts {
		retried = true
		t.avoid = sw
		tm := time.AfterFunc(s.c.backoff(attempts), func() { s.requeue(t) })
		s.timers = append(s.timers, tm)
	} else {
		s.strandLocked(t, fmt.Errorf("failed %d attempts, last: %w", attempts, err))
	}
	sctx := s.ctx
	s.mu.Unlock()

	log := s.c.opts.Logger
	log.WarnCtx(sctx, "cluster: shard attempt failed",
		"worker", name, "trace", t.trace, "configs", len(t.cfgs),
		"attempt", attempts, "err", err)
	s.metrics.onFailure(name)
	if breakerOpened {
		s.metrics.onBreakerOpen()
		log.WarnCtx(sctx, "cluster: circuit breaker opened",
			"worker", name, "cooldown", s.c.breakerCooldown)
	}
	if retried {
		s.metrics.onRetry()
	}
}

// requeue puts a retried shard back on the queue once its backoff has
// elapsed.
func (s *sched) requeue(t *task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.terminalLocked() {
		s.cond.Broadcast()
		return
	}
	s.enqueueLocked(t)
}

// emit streams a completed primary's rows to the SweepStream callback.
// Called outside sched.mu (rows are immutable once done); the emit
// mutex keeps callbacks serialized.
func (s *sched) emit(t *task) {
	if s.onRow == nil || t.sentinelOf != nil {
		return
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	for i, row := range t.rows {
		s.onRow(t.trace, t.cfgs[i], row)
	}
}

// completeLocked records a shard's rows (sw is nil for a local run),
// queues a primary's sentinel away from the worker that ran it, and
// compares a sentinel against its primary.
func (s *sched) completeLocked(t *task, rows []OutcomeRow, sw *schedWorker) {
	t.done = true
	t.rows = rows
	t.by = "local"
	if sw != nil {
		t.by = sw.client.name
	}
	if t.sentinelOf != nil {
		s.sentinelsLeft--
		s.checkSentinelLocked(t.sentinelOf, t)
	} else {
		s.remaining--
		if t.sentinel != nil {
			t.sentinel.avoid = sw
			s.enqueueLocked(t.sentinel)
		}
	}
	s.cond.Broadcast()
}

// checkSentinelLocked compares a primary shard's canonical bytes with
// its sentinel re-execution.
func (s *sched) checkSentinelLocked(primary, sent *task) {
	s.metrics.onSentinel()
	pb, perr := Canonical(primary.rows)
	sb, serr := Canonical(sent.rows)
	if perr != nil || serr != nil {
		s.err = fmt.Errorf("%w: encoding failed (%v, %v)", ErrDeterminism, perr, serr)
	} else if !bytes.Equal(pb, sb) {
		s.err = fmt.Errorf("%w: %s differs between %s and %s",
			ErrDeterminism, primary, primary.by, sent.by)
	}
}

// ---------------------------------------------------------------------------
// Fleet dynamics

// fleetMonitor periodically re-snapshots the fleet's membership.
func (s *sched) fleetMonitor(stop <-chan struct{}) {
	tick := time.NewTicker(s.c.membershipInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		s.reconcile()
	}
}

// reconcile diffs the current membership snapshot against the
// scheduler's worker set: departed members are retired, new members are
// preflighted and admitted.
func (s *sched) reconcile() {
	mctx, cancel := context.WithTimeout(s.ctx, pingTimeout)
	members, err := s.c.opts.Membership.Members(mctx)
	cancel()
	if err != nil {
		// A registry blip must not retire live workers; try again next
		// tick.
		s.c.opts.Logger.DebugCtx(s.ctx, "cluster: membership snapshot failed", "err", err)
		return
	}
	seen := map[string]bool{}
	for _, m := range members {
		seen[m.ID] = true
	}

	var joins []fleet.Member
	s.mu.Lock()
	if s.closed || s.terminalLocked() {
		s.mu.Unlock()
		return
	}
	for _, w := range s.workers {
		if !w.retired && !seen[w.id] {
			s.retireLocked(w)
		}
	}
	for _, m := range members {
		if s.refused[m.ID] {
			continue
		}
		if w := s.byID[m.ID]; w != nil && !w.retired {
			continue
		}
		joins = append(joins, m)
	}
	s.mu.Unlock()
	for _, m := range joins {
		s.admit(m)
	}
}

// retireLocked removes a departed worker from scheduling: its loop
// exits, its in-flight attempt is canceled so the retry machinery
// re-routes the shard, and its residency memo is dropped. When it was
// the last live worker, the queued shards are stranded.
func (s *sched) retireLocked(w *schedWorker) {
	w.retired = true
	s.c.dropClient(w.id)
	if w.cancel != nil {
		w.cancel()
	}
	s.metrics.onMemberLeave()
	s.c.opts.Logger.WarnCtx(s.ctx, "cluster: worker left the fleet", "worker", w.client.name)
	if s.liveLocked(nil) == 0 {
		q := s.queue
		s.queue = nil
		for _, t := range q {
			s.strandLocked(t, errors.New("no live workers remain"))
		}
	}
	s.cond.Broadcast()
}

// admit probes a joining member and, if healthy, starts a dispatch loop
// for it; the loop takes shards from the shared queue. A joiner
// speaking another trace format is refused for the rest of the sweep.
func (s *sched) admit(m fleet.Member) {
	wc := s.c.client(m)
	vi, err := s.c.probe(s.ctx, wc)
	if err != nil {
		// Not reachable or ready yet; the next reconcile retries.
		return
	}
	if vi.TraceFormat != trace.Version {
		s.mu.Lock()
		s.refused[m.ID] = true
		s.mu.Unlock()
		s.c.opts.Logger.WarnCtx(s.ctx, "cluster: joining worker refused (trace format mismatch)",
			"worker", m.ID, "worker_format", vi.TraceFormat, "coordinator_format", trace.Version)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.terminalLocked() {
		return
	}
	if w := s.byID[m.ID]; w != nil && !w.retired {
		return
	}
	sw := &schedWorker{id: m.ID, client: wc}
	s.byID[m.ID] = sw
	s.workers = append(s.workers, sw)
	s.spawnLocked(sw)
	s.metrics.onMemberJoin()
	s.c.opts.Logger.InfoCtx(s.ctx, "cluster: worker joined the fleet mid-sweep", "worker", m.ID)
	s.cond.Broadcast()
}

// ---------------------------------------------------------------------------
// Shard execution

// execute is one network attempt: dispatch the shard and, when the
// worker answers trace_missing (it has never held the recording, or
// evicted it), push the recording and dispatch again within the same
// attempt. A push or a successful shard marks the recording resident
// for placement.
func (s *sched) execute(ctx context.Context, sw *schedWorker, t *task) (rows []OutcomeRow, err error) {
	wc := sw.client
	ctx, sp := telemetry.StartSpan(ctx, "shard.dispatch")
	sp.SetAttr("worker", wc.name)
	sp.SetInt("shard.trace", int64(t.trace))
	sp.SetInt("shard.configs", int64(len(t.cfgs)))
	defer func() { sp.Fail(err); sp.End() }()

	key := s.keys[t.trace]
	req := s.shardReq(t)
	rows, err = wc.runShard(ctx, req)
	if errors.Is(err, errTraceMissing) {
		wc.forget(key)
		if err := wc.push(ctx, key, s.grid.Traces[t.trace].Data); err != nil {
			return nil, err
		}
		s.metrics.onPush(wc.name)
		rows, err = wc.runShard(ctx, req)
	}
	if err == nil {
		wc.markResident(key)
	}
	return rows, err
}

// configs gathers t's machine configurations from the grid.
func (s *sched) configs(t *task) []hydra.Config {
	cfgs := make([]hydra.Config, len(t.cfgs))
	for i, ci := range t.cfgs {
		cfgs[i] = s.grid.Configs[ci]
	}
	return cfgs
}

func (s *sched) shardReq(t *task) ShardRequest {
	gt := s.grid.Traces[t.trace]
	return ShardRequest{
		TraceKey: s.keys[t.trace],
		Source:   gt.Source,
		Optimize: s.grid.Opts.Optimize,
		Annot:    s.grid.Opts.Annot,
		Tracer:   s.grid.Opts.Tracer,
		Select:   s.grid.Opts.Select,
		Configs:  s.configs(t),
	}
}

// localShard executes one shard in-process: every shard when no worker
// is usable, and the graceful-degradation path for a shard the fleet
// cannot run.
func (s *sched) localShard(t *task) {
	ctx, sp := telemetry.StartSpan(s.ctx, "shard.local")
	sp.SetInt("shard.trace", int64(t.trace))
	sp.SetInt("shard.configs", int64(len(t.cfgs)))
	gt := &s.grid.Traces[t.trace]
	var rows []OutcomeRow
	compiled, err := Compile(gt.Source, s.grid.Opts)
	if err != nil {
		err = compileError(gt.Name, err)
	} else {
		outs := compiled.SweepTrace(ctx, gt.Data, s.configs(t), s.grid.Opts, 0)
		rows = EncodeOutcomes(outs)
		for _, o := range outs {
			if o.Err != nil && (errors.Is(o.Err, context.Canceled) || errors.Is(o.Err, context.DeadlineExceeded)) {
				err = fmt.Errorf("cluster: local fallback for %s: %w", t, o.Err)
				break
			}
		}
	}
	sp.Fail(err)
	sp.End()
	s.mu.Lock()
	if err != nil {
		if s.err == nil && s.ctx.Err() == nil {
			s.err = err
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.metrics.onLocalShard()
	s.completeLocked(t, rows, nil)
	s.mu.Unlock()
	s.emit(t)
}

// merge assembles the [trace][config] outcome matrix; every cell must be
// produced by exactly one completed primary shard.
func (s *sched) merge() ([][]OutcomeRow, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]OutcomeRow, len(s.grid.Traces))
	filled := make([][]bool, len(s.grid.Traces))
	for ti := range out {
		out[ti] = make([]OutcomeRow, len(s.grid.Configs))
		filled[ti] = make([]bool, len(s.grid.Configs))
	}
	for _, t := range s.primaries {
		if !t.done {
			return nil, fmt.Errorf("cluster: internal: %s never completed", t)
		}
		if len(t.rows) != len(t.cfgs) {
			return nil, fmt.Errorf("cluster: internal: %s has %d rows", t, len(t.rows))
		}
		for i, row := range t.rows {
			ci := t.cfgs[i]
			if filled[t.trace][ci] {
				return nil, fmt.Errorf("cluster: internal: config (trace %d, config %d) merged twice", t.trace, ci)
			}
			filled[t.trace][ci] = true
			out[t.trace][ci] = row
		}
	}
	for ti := range filled {
		for ci, ok := range filled[ti] {
			if !ok {
				return nil, fmt.Errorf("cluster: internal: config (trace %d, config %d) lost", ti, ci)
			}
		}
	}
	return out, nil
}
