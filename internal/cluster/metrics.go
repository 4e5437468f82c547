package cluster

import (
	"sort"
	"sync"
	"time"

	"jrpm/internal/telemetry"
)

// Metrics accumulates one sweep's scheduling counters. The scalar
// counters are lock-free telemetry counters in a sweep-private registry
// (so a sweep can also be rendered as Prometheus text); latency samples
// and per-worker rows keep their own mutex so slow shards never
// serialize against dispatch.
type Metrics struct {
	reg *telemetry.Registry

	dispatched *telemetry.Counter
	retried    *telemetry.Counter
	failures   *telemetry.Counter
	breaker    *telemetry.Counter
	local      *telemetry.Counter
	sentinels  *telemetry.Counter
	pushes     *telemetry.Counter
	joins      *telemetry.Counter
	leaves     *telemetry.Counter

	mu        sync.Mutex
	latencies []time.Duration // completed shard round-trip times
	perWorker map[string]*workerCounters
}

type workerCounters struct {
	dispatched int64
	completed  int64
	failures   int64
	pushes     int64
	latencies  []time.Duration
}

func newMetrics() *Metrics {
	reg := telemetry.NewRegistry()
	return &Metrics{
		reg:        reg,
		dispatched: reg.Counter("jrpm_sweep_shards_dispatched_total", "Shard dispatch attempts (including retries and sentinels)."),
		retried:    reg.Counter("jrpm_sweep_shards_retried_total", "Shards requeued after a failed attempt."),
		failures:   reg.Counter("jrpm_sweep_shard_failures_total", "Failed shard attempts."),
		breaker:    reg.Counter("jrpm_sweep_breaker_opens_total", "Circuit-breaker trips."),
		local:      reg.Counter("jrpm_sweep_local_shards_total", "Shards executed in-process as graceful degradation."),
		sentinels:  reg.Counter("jrpm_sweep_sentinel_checks_total", "Cross-worker determinism comparisons performed."),
		pushes:     reg.Counter("jrpm_sweep_trace_pushes_total", "Recordings shipped to workers (content-address misses)."),
		joins:      reg.Counter("jrpm_sweep_member_joins_total", "Workers admitted mid-sweep from the fleet membership."),
		leaves:     reg.Counter("jrpm_sweep_member_leaves_total", "Workers retired mid-sweep after leaving the fleet."),
		perWorker:  map[string]*workerCounters{},
	}
}

// Registry exposes the sweep's counter registry (Prometheus-renderable
// via WriteProm).
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

func (m *Metrics) worker(name string) *workerCounters {
	w := m.perWorker[name]
	if w == nil {
		w = &workerCounters{}
		m.perWorker[name] = w
	}
	return w
}

func (m *Metrics) onDispatch(worker string) {
	m.dispatched.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.worker(worker).dispatched++
}

func (m *Metrics) onComplete(worker string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.worker(worker)
	w.completed++
	w.latencies = append(w.latencies, d)
	m.latencies = append(m.latencies, d)
}

func (m *Metrics) onFailure(worker string) {
	m.failures.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.worker(worker).failures++
}

func (m *Metrics) onRetry()       { m.retried.Inc() }
func (m *Metrics) onBreakerOpen() { m.breaker.Inc() }
func (m *Metrics) onLocalShard()  { m.local.Inc() }
func (m *Metrics) onSentinel()    { m.sentinels.Inc() }

func (m *Metrics) onMemberJoin()  { m.joins.Inc() }
func (m *Metrics) onMemberLeave() { m.leaves.Inc() }

func (m *Metrics) onPush(w string) {
	m.pushes.Inc()
	m.mu.Lock()
	m.worker(w).pushes++
	m.mu.Unlock()
}

// WorkerStats is the per-worker section of a metrics snapshot.
type WorkerStats struct {
	Worker     string  `json:"worker"`
	Dispatched int64   `json:"dispatched"`
	Completed  int64   `json:"completed"`
	Failures   int64   `json:"failures"`
	TracePush  int64   `json:"trace_pushes"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// Snapshot is the JSON-ready summary of one sweep's scheduling: shard
// dispatch/retry counters, circuit-breaker trips, local
// fallbacks, sentinel checks, content-address pushes, and shard latency
// quantiles, overall and per worker.
type Snapshot struct {
	Dispatched     int64         `json:"dispatched"`
	Retried        int64         `json:"retried"`
	Failures       int64         `json:"failures"`
	BreakerOpens   int64         `json:"breaker_opens"`
	LocalShards    int64         `json:"local_shards"`
	SentinelChecks int64         `json:"sentinel_checks"`
	TracePushes    int64         `json:"trace_pushes"`
	MemberJoins    int64         `json:"member_joins,omitempty"`
	MemberLeaves   int64         `json:"member_leaves,omitempty"`
	ShardP50Ms     float64       `json:"shard_p50_ms"`
	ShardP99Ms     float64       `json:"shard_p99_ms"`
	Workers        []WorkerStats `json:"workers"`
}

// quantile returns the q-th latency quantile in milliseconds; ds is
// copied and sorted.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return float64(s[i].Microseconds()) / 1e3
}

// Snapshot copies the counters out. Worker rows are sorted by name.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Dispatched:     m.dispatched.Load(),
		Retried:        m.retried.Load(),
		Failures:       m.failures.Load(),
		BreakerOpens:   m.breaker.Load(),
		LocalShards:    m.local.Load(),
		SentinelChecks: m.sentinels.Load(),
		TracePushes:    m.pushes.Load(),
		MemberJoins:    m.joins.Load(),
		MemberLeaves:   m.leaves.Load(),
		ShardP50Ms:     quantile(m.latencies, 0.50),
		ShardP99Ms:     quantile(m.latencies, 0.99),
	}
	names := make([]string, 0, len(m.perWorker))
	for n := range m.perWorker {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := m.perWorker[n]
		s.Workers = append(s.Workers, WorkerStats{
			Worker:     n,
			Dispatched: w.dispatched,
			Completed:  w.completed,
			Failures:   w.failures,
			TracePush:  w.pushes,
			P50Ms:      quantile(w.latencies, 0.50),
			P99Ms:      quantile(w.latencies, 0.99),
		})
	}
	return s
}
