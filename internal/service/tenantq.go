package service

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// DefaultTenant is the tenant jobs land under when the submitter sends
// no X-JRPM-Tenant header (anonymous CLI use, health probes, tests).
const DefaultTenant = "default"

// maxTrackedTenants bounds per-tenant bookkeeping so a header-spraying
// client cannot grow daemon memory without bound; tenants past the cap
// share one overflow lane (and its quota bucket), which degrades their
// isolation but never the daemon.
const maxTrackedTenants = 256

// overflowTenant is the shared lane for tenants past maxTrackedTenants.
const overflowTenant = "!overflow"

// QuotaError is returned by Submit when the tenant's token bucket is
// empty; RetryAfter is the time until the bucket refills one token,
// which the HTTP layer surfaces as a Retry-After header.
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over quota (retry in %s)", e.Tenant, e.RetryAfter.Round(time.Millisecond))
}

// tokenBucket is a classic rate limiter: capacity `burst` tokens,
// refilled at `rate` tokens/second, one token per accepted job. Callers
// hold the owning tenantQueue's lock.
type tokenBucket struct {
	tokens float64
	last   time.Time
	rate   float64
	burst  float64
}

func (b *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0 // quotas disabled
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens = math.Min(b.burst, b.tokens+elapsed*b.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// tenantLane is one tenant's FIFO plus its quota bucket and lifetime
// counters (the "tenants" section of GET /v1/metrics).
type tenantLane struct {
	name   string
	fifo   []*Job
	bucket tokenBucket

	submitted int64
	completed int64
	shed      int64 // queue-full + quota rejections charged to this tenant
}

// tenantQueue is the pool's bounded, multi-tenant job queue. Jobs
// enqueue into per-tenant FIFOs; workers dequeue round-robin across
// tenants with backlog, so a tenant flooding the daemon delays only
// itself — under saturation every active tenant gets an equal share of
// worker dequeues regardless of offered load.
//
// Capacity is global (backlog is what threatens latency, whoever owns
// it); quotas are per-tenant token buckets refilled at rate/burst from
// Config.
type tenantQueue struct {
	mu    sync.Mutex
	lanes map[string]*tenantLane
	ring  []string // tenants with non-empty FIFOs, dequeue order
	next  int      // round-robin cursor into ring
	size  int      // total queued jobs across lanes
	owed  int      // tokens workers hold for canceled jobs (see remove)

	capacity int
	rate     float64
	burst    float64

	// ready carries at most one token per queued job so workers can
	// block on a channel (select-able against pool shutdown) while the
	// fair-dequeue choice itself happens under mu at pop time.
	ready chan struct{}
}

func newTenantQueue(capacity int, rate, burst float64) *tenantQueue {
	return &tenantQueue{
		lanes:    make(map[string]*tenantLane),
		capacity: capacity,
		rate:     rate,
		burst:    burst,
		ready:    make(chan struct{}, capacity),
	}
}

// lane returns the tenant's lane, creating it on first use; tenants
// past the tracking cap share the overflow lane.
func (q *tenantQueue) lane(tenant string) *tenantLane {
	if l, ok := q.lanes[tenant]; ok {
		return l
	}
	if len(q.lanes) >= maxTrackedTenants {
		if l, ok := q.lanes[overflowTenant]; ok {
			return l
		}
		tenant = overflowTenant
	}
	l := &tenantLane{
		name:   tenant,
		bucket: tokenBucket{tokens: q.burst, rate: q.rate, burst: q.burst},
	}
	q.lanes[tenant] = l
	return l
}

// admit runs the submission checks in shed-cheapest-first order —
// quota (per tenant), then the global capacity — and enqueues on
// success. The returned error is ErrQueueFull or a *QuotaError; the
// caller maps both to HTTP 429.
func (q *tenantQueue) admit(j *Job, now time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	l := q.lane(j.Tenant)
	if ok, retry := l.bucket.take(now); !ok {
		l.shed++
		return &QuotaError{Tenant: l.name, RetryAfter: retry}
	}
	if q.size >= q.capacity {
		l.shed++
		return ErrQueueFull
	}
	if len(l.fifo) == 0 {
		q.ring = append(q.ring, l.name)
	}
	l.fifo = append(l.fifo, j)
	l.submitted++
	q.size++
	if q.owed > 0 {
		q.owed-- // a worker already holds this job's token
	} else {
		q.ready <- struct{}{} // cannot block: at most one token per job, cap == capacity
	}
	return nil
}

// remove takes a canceled job out of its lane, and one ready token with
// it. When workers hold every token, one of them will find one job
// fewer; the token is owed, and the next admit sends none, so the
// channel never holds more tokens than there are queued jobs. A job a
// worker has popped is no longer in a lane, and remove leaves the queue
// alone.
func (q *tenantQueue) remove(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l := q.lane(j.Tenant)
	i := slices.Index(l.fifo, j)
	if i < 0 {
		return
	}
	l.fifo = slices.Delete(l.fifo, i, i+1)
	q.size--
	if len(l.fifo) == 0 {
		r := slices.Index(q.ring, l.name)
		q.ring = slices.Delete(q.ring, r, r+1)
		if r < q.next {
			q.next--
		}
	}
	select {
	case <-q.ready:
	default:
		q.owed++
	}
}

// pop removes and returns the next job by round-robin across tenants
// with backlog. It must only be called after receiving a token from
// readyc(); it returns nil when the token was a canceled job's.
func (q *tenantQueue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ring) == 0 {
		// A canceled job's token, or the queue drained concurrently
		// (shutdown path).
		if q.owed > 0 {
			q.owed--
		}
		return nil
	}
	if q.next >= len(q.ring) {
		q.next = 0
	}
	name := q.ring[q.next]
	l := q.lanes[name]
	j := l.fifo[0]
	l.fifo = l.fifo[1:]
	q.size--
	if len(l.fifo) == 0 {
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		// next now points at the element after the removed one; wrap at pop.
	} else {
		q.next++
	}
	return j
}

// readyc is the channel workers select on; each receive licenses one
// pop.
func (q *tenantQueue) readyc() <-chan struct{} { return q.ready }

// drain empties every lane, returning the queued jobs (shutdown path:
// the pool fails them with ErrServerDraining). Leftover ready tokens
// are swept non-blockingly — a worker that consumed a token but exited
// on shutdown before popping leaves the count short, which is fine once
// the lanes are empty.
func (q *tenantQueue) drain() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*Job
	for _, l := range q.lanes {
		out = append(out, l.fifo...)
		l.fifo = nil
	}
	q.ring = nil
	q.next = 0
	q.size = 0
	q.owed = 0
	for {
		select {
		case <-q.ready:
		default:
			return out
		}
	}
}

// length is the total number of queued jobs.
func (q *tenantQueue) length() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// completed charges a finished job back to its tenant's counters.
func (q *tenantQueue) completed(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.lane(tenant).completed++
}

// TenantSnapshot is one tenant's row in the "tenants" section of
// GET /v1/metrics.
type TenantSnapshot struct {
	Tenant    string `json:"tenant"`
	Queued    int    `json:"queued"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Shed      int64  `json:"shed"`
}

// snapshot lists per-tenant stats sorted by tenant name.
func (q *tenantQueue) snapshot() []TenantSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(q.lanes))
	for _, l := range q.lanes {
		out = append(out, TenantSnapshot{
			Tenant:    l.name,
			Queued:    len(l.fifo),
			Submitted: l.submitted,
			Completed: l.completed,
			Shed:      l.shed,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
