package service

import (
	"time"

	"jrpm/internal/telemetry"
	"jrpm/internal/vmsim"
)

// histBounds are the upper bounds (exclusive) of the latency histogram
// buckets, in microseconds; the last bucket is unbounded. The spread
// covers everything from a cache-hit no-op job to a full-suite profile.
var histBounds = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// usToSeconds converts microsecond observations to the base unit
// Prometheus expects for _seconds series.
const usToSeconds = 1e-6

// Histogram adapts a telemetry histogram to the pool's
// duration-observing call sites and the legacy JSON snapshot shape.
type Histogram struct {
	h *telemetry.Histogram
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.h.Observe(d.Microseconds()) }

// HistogramSnapshot is the JSON form of a Histogram. Bucket i counts
// observations in [BoundsUS[i-1], BoundsUS[i]); the final bucket is
// unbounded above.
type HistogramSnapshot struct {
	Count    int64   `json:"count"`
	MeanMS   float64 `json:"mean_ms"`
	MaxMS    float64 `json:"max_ms"`
	BoundsUS []int64 `json:"bounds_us"`
	Buckets  []int64 `json:"buckets"`
}

// Snapshot returns a point-in-time copy. Counters are read individually,
// so a snapshot taken during heavy traffic may be off by in-flight
// observations — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.h.Count(),
		MaxMS:    float64(h.h.Max()) / 1e3,
		BoundsUS: h.h.Bounds(),
		Buckets:  h.h.BucketCounts(),
	}
	if s.Count > 0 {
		s.MeanMS = float64(h.h.Sum()) / float64(s.Count) / 1e3
	}
	return s
}

// Metrics aggregates the daemon's operational counters. Every
// instrument lives in a telemetry.Registry — one source of truth behind
// both the legacy JSON snapshot (GET /v1/metrics, shape pinned by
// TestMetricsJSONGolden) and the Prometheus text exposition
// (?format=prom). The pool and server update the typed handles
// lock-free on the hot path.
type Metrics struct {
	JobsSubmitted *telemetry.Counter
	JobsCompleted *telemetry.Counter
	JobsFailed    *telemetry.Counter
	JobsRejected  *telemetry.Counter // queue-full rejections
	JobsCanceled  *telemetry.Counter

	// Load-shed and saturation counters. JobsRejected is the umbrella
	// (every 429); QuotaShed counts the ones a tenant's quota caused, and
	// DeadlineExpired / DrainFailed count jobs that were accepted but
	// failed before (or instead of) doing useful work.
	QuotaShed       *telemetry.Counter // shed by a tenant token bucket
	DeadlineExpired *telemetry.Counter // request deadline passed (queued or running)
	DrainFailed     *telemetry.Counter // queued jobs failed by shutdown (ErrServerDraining)

	CacheHits   *telemetry.Counter
	CacheMisses *telemetry.Counter

	// CyclesSimulated totals VM cycles executed across traced and
	// recording runs — the daemon's unit of useful work.
	CyclesSimulated *telemetry.Counter

	QueueWait Histogram // submit -> worker pickup
	RunTime   Histogram // worker pickup -> done
}

// newMetrics registers the daemon's instruments in reg.
func newMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		JobsSubmitted:   reg.Counter("jrpmd_jobs_submitted_total", "Jobs accepted into the queue."),
		JobsCompleted:   reg.Counter("jrpmd_jobs_completed_total", "Jobs finished successfully."),
		JobsFailed:      reg.Counter("jrpmd_jobs_failed_total", "Jobs that ended in error."),
		JobsRejected:    reg.Counter("jrpmd_jobs_rejected_total", "Submissions refused because the queue was full."),
		JobsCanceled:    reg.Counter("jrpmd_jobs_canceled_total", "Jobs canceled before or during execution."),
		QuotaShed:       reg.Counter("jrpmd_quota_shed_total", "Submissions shed by per-tenant token-bucket quotas."),
		DeadlineExpired: reg.Counter("jrpmd_deadline_expired_total", "Jobs failed because their request deadline passed."),
		DrainFailed:     reg.Counter("jrpmd_drain_failed_total", "Queued jobs failed by shutdown before starting (ErrServerDraining)."),
		CacheHits:       reg.Counter("jrpmd_artifact_cache_hits_total", "Compiled-artifact cache hits."),
		CacheMisses:     reg.Counter("jrpmd_artifact_cache_misses_total", "Compiled-artifact cache misses."),
		CyclesSimulated: reg.Counter("jrpmd_cycles_simulated_total", "VM cycles executed across traced and recording runs."),
		QueueWait: Histogram{reg.Histogram("jrpmd_queue_wait_seconds",
			"Time from job submission to worker pickup.", histBounds, usToSeconds)},
		RunTime: Histogram{reg.Histogram("jrpmd_run_time_seconds",
			"Time from worker pickup to job completion.", histBounds, usToSeconds)},
	}
}

// registerPoolGauges adds the callback-backed instruments that read pool
// state at exposition time; split from newMetrics because they need the
// constructed pool.
func (p *Pool) registerPoolGauges(reg *telemetry.Registry) {
	reg.GaugeFunc("jrpmd_workers", "Configured worker goroutines.",
		func() float64 { return float64(p.cfg.Workers) })
	reg.GaugeFunc("jrpmd_queue_depth", "Configured queue capacity.",
		func() float64 { return float64(p.cfg.QueueDepth) })
	reg.GaugeFunc("jrpmd_queue_length", "Jobs waiting for a worker.",
		func() float64 { return float64(p.QueueLength()) })
	reg.GaugeFunc("jrpmd_jobs_active", "Jobs accepted and not yet terminal.",
		func() float64 { return float64(p.Active()) })
	reg.GaugeFunc("jrpmd_artifact_cache_entries", "Compiled programs resident in the artifact cache.",
		func() float64 { return float64(p.cache.Len()) })
	reg.GaugeFunc("jrpmd_trace_cache_entries", "Recorded traces resident in the trace cache.",
		func() float64 { return float64(p.traces.Snapshot().Count) })
	reg.GaugeFunc("jrpmd_trace_cache_bytes", "Bytes of trace data resident in the trace cache.",
		func() float64 { return float64(p.traces.Snapshot().Bytes) })
	reg.CounterFunc("jrpmd_input_cache_hits_total", "Workload jobs and sessions whose input was already built.",
		func() int64 { return p.inputs.snapshot().Hits })
	reg.CounterFunc("jrpmd_input_cache_misses_total", "Workload jobs and sessions that built their input.",
		func() int64 { return p.inputs.snapshot().Misses })
	reg.GaugeFunc("jrpmd_input_cache_bytes", "Bytes of workload input held by the input memo.",
		func() float64 { return float64(p.inputs.snapshot().Bytes) })
	reg.GaugeFunc("jrpmd_sessions_active", "Adaptive sessions currently running.",
		func() float64 { return float64(p.sessions.Counts().Active) })
	reg.CounterFunc("jrpmd_sessions_started_total", "Adaptive sessions started over the daemon's lifetime.",
		func() int64 { return int64(p.sessions.Counts().Started) })
	reg.GaugeFunc("jrpmd_tenants", "Tenant lanes tracked by the fair queue.",
		func() float64 { return float64(len(p.Tenants())) })
	reg.GaugeFunc("jrpmd_draining", "1 while the pool refuses new submissions.",
		func() float64 {
			if p.Draining() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("jrpmd_vm_runs_total", "Process-wide VM.Run invocations.", vmsim.RunCount)
}

// MetricsSnapshot is the JSON body of GET /v1/metrics.
type MetricsSnapshot struct {
	JobsSubmitted   int64             `json:"jobs_submitted"`
	JobsCompleted   int64             `json:"jobs_completed"`
	JobsFailed      int64             `json:"jobs_failed"`
	JobsRejected    int64             `json:"jobs_rejected"`
	JobsCanceled    int64             `json:"jobs_canceled"`
	CacheHits       int64             `json:"cache_hits"`
	CacheMisses     int64             `json:"cache_misses"`
	CacheSize       int               `json:"cache_size"`
	CyclesSimulated int64             `json:"cycles_simulated"`
	Workers         int               `json:"workers"`
	QueueDepth      int               `json:"queue_depth"`
	QueueLength     int               `json:"queue_length"`
	QueueWait       HistogramSnapshot `json:"queue_wait"`
	RunTime         HistogramSnapshot `json:"run_time"`

	// Shedding breaks the daemon's load-shed and saturation behavior out
	// by cause; Tenants lists per-tenant submission/queue/shed stats
	// (fair-dequeue lanes keyed on X-JRPM-Tenant).
	Shedding SheddingSnapshot `json:"shedding"`
	Tenants  []TenantSnapshot `json:"tenants"`

	// TraceCache reports the recorded-trace cache: artifact count, resident
	// bytes, and replay hit ratio.
	TraceCache TraceCacheSnapshot `json:"trace_cache"`

	// InputCache reports the memoized workload inputs: entries, bytes,
	// and how many workload jobs and sessions found theirs built.
	InputCache InputCacheSnapshot `json:"input_cache"`

	// Sessions reports the adaptive-session subsystem: lifetime starts,
	// currently running sessions, and the epoch/retier totals.
	Sessions SessionsSnapshot `json:"sessions"`

	// Cluster carries the worker-mode shard/transfer counters (a
	// cluster.WorkerSnapshot) when jrpmd runs with -worker; absent
	// otherwise.
	Cluster any `json:"cluster,omitempty"`
}

// SheddingSnapshot is the "shedding" section of GET /v1/metrics: how
// the daemon degraded under load instead of queueing without bound.
type SheddingSnapshot struct {
	QuotaShed       int64 `json:"quota_shed"`
	DeadlineExpired int64 `json:"deadline_expired"`
	DrainFailed     int64 `json:"drain_failed"`
}

// SessionsSnapshot is the "sessions" section of GET /v1/metrics.
type SessionsSnapshot struct {
	Started  int   `json:"started"`
	Active   int   `json:"active"`
	Epochs   int64 `json:"epochs"`
	Promoted int64 `json:"promoted"`
	Demoted  int64 `json:"demoted"`
}

// sessionsSnapshot assembles the session section from the manager's
// counts and the session metrics handles.
func (p *Pool) sessionsSnapshot() SessionsSnapshot {
	c := p.sessions.Counts()
	return SessionsSnapshot{
		Started:  c.Started,
		Active:   c.Active,
		Epochs:   p.smetrics.Epochs.Load(),
		Promoted: p.smetrics.Promoted.Load(),
		Demoted:  p.smetrics.Demoted.Load(),
	}
}

func (m *Metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		JobsSubmitted:   m.JobsSubmitted.Load(),
		JobsCompleted:   m.JobsCompleted.Load(),
		JobsFailed:      m.JobsFailed.Load(),
		JobsRejected:    m.JobsRejected.Load(),
		JobsCanceled:    m.JobsCanceled.Load(),
		CacheHits:       m.CacheHits.Load(),
		CacheMisses:     m.CacheMisses.Load(),
		CyclesSimulated: m.CyclesSimulated.Load(),
		QueueWait:       m.QueueWait.Snapshot(),
		RunTime:         m.RunTime.Snapshot(),
		Shedding: SheddingSnapshot{
			QuotaShed:       m.QuotaShed.Load(),
			DeadlineExpired: m.DeadlineExpired.Load(),
			DrainFailed:     m.DrainFailed.Load(),
		},
	}
}
