package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// slowSource spins for ~200M VM steps — many seconds of simulation —
// so a deadline or shutdown must interrupt it mid-run.
const slowSource = `
global a: int[];
func main() {
    var i: int = 0;
    var s: int = 0;
    while (i < 200000000) {
        s = s + i;
        i++;
    }
    a[0] = s;
}`

// TestTenantFairness: two tenants at unequal offered load (3:1) into a
// saturated single-worker queue; round-robin dequeue must hand each
// tenant a share of worker pickups within 10% of fair while both have
// backlog.
func TestTenantFairness(t *testing.T) {
	pool := NewPool(Config{Workers: 1, QueueDepth: 64})
	defer pool.Stop()

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	pool.testHook = func(j *Job) {
		mu.Lock()
		order = append(order, j.Tenant)
		mu.Unlock()
		<-gate // open after every submission is queued
	}

	// Occupy the worker so all subsequent submissions pile into lanes.
	warm, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			j, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2, Tenant: tenant})
			if err != nil {
				t.Fatalf("submit %s #%d: %v", tenant, i, err)
			}
			jobs = append(jobs, j)
		}
	}
	submit("heavy", 30)
	submit("light", 10)
	close(gate)

	mustWait(t, warm)
	for _, j := range jobs {
		if v := mustWait(t, j); v.State != StateDone {
			t.Fatalf("job %s (%s): state=%s error=%q", j.ID, j.Tenant, v.State, v.Error)
		}
	}

	// While both tenants had backlog — the first 20 dequeues after the
	// warmup — shares must be within 10% of fair (10 ± 2 of 20).
	mu.Lock()
	window := order[1:21]
	mu.Unlock()
	light := 0
	for _, tn := range window {
		if tn == "light" {
			light++
		}
	}
	heavy := len(window) - light
	if diff := light - heavy; diff < -2 || diff > 2 {
		t.Errorf("dequeue shares under saturation: heavy=%d light=%d (want within 10%% of 10/10); order=%v",
			heavy, light, window)
	}

	snap := pool.Tenants()
	byName := map[string]TenantSnapshot{}
	for _, ts := range snap {
		byName[ts.Tenant] = ts
	}
	if byName["heavy"].Completed != 30 || byName["light"].Completed != 10 {
		t.Errorf("tenant completion counters: %+v", snap)
	}
}

// TestCancelKeepsOneTokenPerJob: canceling a queued job while workers
// hold every ready token leaves the token owed, so the queue never holds
// more tokens than jobs (admit's send cannot block) and every queued
// job is still popped.
func TestCancelKeepsOneTokenPerJob(t *testing.T) {
	q := newTenantQueue(2, 0, 0)
	check := func(step string) {
		t.Helper()
		if len(q.ready) > q.size {
			t.Fatalf("%s: %d tokens for %d queued jobs", step, len(q.ready), q.size)
		}
	}
	j1, j2 := &Job{ID: "j1", Tenant: "a"}, &Job{ID: "j2", Tenant: "b"}
	for _, j := range []*Job{j1, j2} {
		if err := q.admit(j, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	<-q.ready // two workers take both tokens
	<-q.ready
	q.remove(j1)
	check("cancel with every token held")
	j3 := &Job{ID: "j3", Tenant: "a"}
	if err := q.admit(j3, time.Now()); err != nil {
		t.Fatal(err)
	}
	check("admit after the cancel")
	got := map[*Job]bool{q.pop(): true, q.pop(): true}
	if !got[j2] || !got[j3] {
		t.Fatalf("the two token holders popped %v, want j2 and j3", got)
	}
	for i := 0; i < 2; i++ {
		if err := q.admit(&Job{Tenant: "c"}, time.Now()); err != nil {
			t.Fatal(err)
		}
		check("refill")
	}
}

// TestCancelQueuedConcurrent: submits and cancels racing the workers
// leave no job queued, none live and no token over the queued jobs.
// CI runs it under the race detector.
func TestCancelQueuedConcurrent(t *testing.T) {
	pool := NewPool(Config{Workers: 2, QueueDepth: 4})
	defer pool.Stop()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var jobs []*Job
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := pool.Submit(Request{Workload: "BitOps", Scale: 0.05})
				if err != nil {
					continue // queue full
				}
				if i%2 == 0 {
					pool.Cancel(j.ID) //nolint:errcheck // the job may have finished
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		mustWait(t, j)
	}
	q := pool.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size != 0 || len(q.ready) > q.size || pool.Active() != 0 {
		t.Fatalf("after every job ended: %d queued, %d tokens, %d live", q.size, len(q.ready), pool.Active())
	}
}

// TestTenantQuota: per-tenant token buckets shed one tenant's burst
// without touching another's, and the 429 carries the bucket's own
// refill estimate as Retry-After.
func TestTenantQuota(t *testing.T) {
	pool := NewPool(Config{Workers: 1, QueueDepth: 64, TenantRate: 0.5, TenantBurst: 2})
	defer pool.Stop()
	release := make(chan struct{})
	pool.testHook = func(*Job) { <-release }
	defer close(release)

	for i := 0; i < 2; i++ {
		if _, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2, Tenant: "a"}); err != nil {
			t.Fatalf("tenant a within burst: %v", err)
		}
	}
	_, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2, Tenant: "a"})
	var quota *QuotaError
	if !errors.As(err, &quota) {
		t.Fatalf("tenant a past burst: err=%v, want *QuotaError", err)
	}
	if quota.RetryAfter <= 0 {
		t.Errorf("quota retry-after=%s, want > 0", quota.RetryAfter)
	}
	if _, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2, Tenant: "b"}); err != nil {
		t.Fatalf("tenant b must not be affected by a's bucket: %v", err)
	}
	if n := pool.Metrics().QuotaShed.Load(); n != 1 {
		t.Errorf("quota_shed=%d, want 1", n)
	}

	srv := httptest.NewServer(NewServer(pool).Handler())
	defer srv.Close()
	req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs",
		strings.NewReader(`{"workload":"Huffman","scale":0.2}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, "a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 Retry-After=%q, want a positive refill estimate", ra)
	}
}

// TestDeadlineExpiredInQueue: a job whose request deadline passes while
// it waits for a worker fails fast without running.
func TestDeadlineExpiredInQueue(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	ran := make(chan string, 8)
	pool.testHook = func(j *Job) {
		ran <- j.ID
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}

	gate, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	doomed, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2, DeadlineMs: 30})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	close(release)

	v := mustWait(t, doomed)
	if v.State != StateFailed || !strings.Contains(v.Error, "deadline") {
		t.Fatalf("expired-in-queue job: state=%s error=%q, want failed + deadline", v.State, v.Error)
	}
	mustWait(t, gate)
	if n := pool.Metrics().DeadlineExpired.Load(); n != 1 {
		t.Errorf("deadline_expired=%d, want 1", n)
	}
	// The doomed job must never have reached execution.
	close(ran)
	for id := range ran {
		if id == doomed.ID {
			t.Error("expired job was executed")
		}
	}
}

// TestDeadlineInterruptsRun: a deadline shorter than the job's work
// interrupts the VM mid-run and the failure names the deadline.
func TestDeadlineInterruptsRun(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	j, err := pool.Submit(Request{
		Source:     slowSource,
		Ints:       map[string][]int64{"a": {0}},
		DeadlineMs: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := mustWait(t, j)
	if v.State != StateFailed || !strings.Contains(v.Error, "deadline") {
		t.Fatalf("deadline mid-run: state=%s error=%q, want failed + deadline", v.State, v.Error)
	}
	if n := pool.Metrics().DeadlineExpired.Load(); n != 1 {
		t.Errorf("deadline_expired=%d, want 1", n)
	}
}

// TestCancelCompleted409: DELETE on a job that already finished answers
// 409 with a JSON error body, not a 200 no-op.
func TestCancelCompleted409(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	srv := httptest.NewServer(NewServer(pool).Handler())
	defer srv.Close()

	j, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if v := mustWait(t, j); v.State != StateDone {
		t.Fatalf("job: state=%s error=%q", v.State, v.Error)
	}
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE completed job: HTTP %d, want 409", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("409 Content-Type=%q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "done") {
		t.Errorf("409 body error=%q, want the terminal state named", body.Error)
	}
}

// TestStopFailsQueuedWithDraining: shutdown must not silently drop
// queued-but-unstarted jobs; they fail with ErrServerDraining surfaced
// in job status.
func TestStopFailsQueuedWithDraining(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	started := make(chan struct{}, 1)
	pool.testHook = func(*Job) {
		select {
		case started <- struct{}{}:
		default:
		}
	}

	// A slow job pins the worker; the rest sit queued when Stop lands.
	running, err := pool.Submit(Request{Source: slowSource, Ints: map[string][]int64{"a": {0}}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queued []*Job
	for i := 0; i < 3; i++ {
		j, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	pool.Stop()

	if v := mustWait(t, running); v.State == StateDone {
		t.Errorf("slow running job survived Stop: state=%s", v.State)
	}
	for i, j := range queued {
		v := mustWait(t, j)
		if v.State != StateFailed || !strings.Contains(v.Error, "draining") {
			t.Errorf("queued job %d after Stop: state=%s error=%q, want failed + ErrServerDraining", i, v.State, v.Error)
		}
	}
	if n := pool.Metrics().DrainFailed.Load(); n != 3 {
		t.Errorf("drain_failed=%d, want 3", n)
	}
	if pool.Active() != 0 {
		t.Errorf("live jobs after Stop: %d, want 0", pool.Active())
	}
}

// TestValidateDeadline: negative deadlines and timeouts are rejected at
// submission.
func TestValidateDeadline(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	if _, err := pool.Submit(Request{Workload: "Huffman", DeadlineMs: -1}); err == nil {
		t.Error("negative deadline_ms accepted")
	}
	if _, err := pool.Submit(Request{Workload: "Huffman", TimeoutMs: -5}); err == nil {
		t.Error("negative timeout_ms accepted")
	}
}

// TestDrainCompletesQueued: graceful Drain (unlike Stop) still runs the
// queued backlog to completion before tearing down — the draining
// failure path is only for jobs the deadline fallback abandoned.
func TestDrainCompletesQueued(t *testing.T) {
	pool := NewPool(Config{Workers: 2, QueueDepth: 16})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2, Tenant: "t" + string(rune('a'+i%2))})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if !pool.Drain(ctx) {
		t.Fatal("Drain reported unclean with a generous deadline")
	}
	for i, j := range jobs {
		if v := mustWait(t, j); v.State != StateDone {
			t.Errorf("job %d: state=%s error=%q, want done", i, v.State, v.Error)
		}
	}
	if n := pool.Metrics().DrainFailed.Load(); n != 0 {
		t.Errorf("drain_failed=%d after clean drain, want 0", n)
	}
}

// TestScaleValidation: a scale that is negative, not finite or above
// MaxScale is refused with 400 on the job and session endpoints before
// any input is built; 1e9 used to panic the submit handler in
// NewInput, and 1e300 wrapped to an accepted size.
func TestScaleValidation(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	srv := httptest.NewServer(NewServer(pool).Handler())
	defer srv.Close()
	for _, path := range []string{"/v1/jobs", "/v1/sessions"} {
		for _, body := range []string{
			`{"workload":"euler","scale":1e9}`,
			`{"workload":"euler","scale":1e300}`,
			`{"workload":"euler","scale":1000}`,
			`{"workload":"euler","scale":-0.5}`,
		} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s %s: %v", path, body, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s %s: HTTP %d, want 400", path, body, resp.StatusCode)
			}
		}
	}
	if n := pool.Metrics().JobsSubmitted.Load(); n != 0 {
		t.Errorf("hostile scales were queued: submitted=%d", n)
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), MaxScale + 1e-9} {
		if err := (&Request{Workload: "euler", Scale: scale}).validate(); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	for _, scale := range []float64{0, 0.1, 1, MaxScale} {
		if err := (&Request{Workload: "euler", Scale: scale}).validate(); err != nil {
			t.Errorf("scale %v refused: %v", scale, err)
		}
	}
}

// TestHugeAllocationFailsJob: a program whose newint asks for more than
// the VM's heap bound fails its job with the heap fault, whether the job
// profiles, speculates or records, and the same pool serves the next
// job. The two 2^30-element arrays wrap a 32-bit size to zero, so the
// program allocates nothing even where the bound is missing.
func TestHugeAllocationFailsJob(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	run := func(req Request) JobView {
		j, err := pool.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		v, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	const src = `func main() {
	var a: int[] = newint(1073741824);
	var b: int[] = newint(1073741824);
	print(len(a) + len(b));
}`
	for _, req := range []Request{{Source: src}, {Source: src, Speculate: true}, {Source: src, Record: true}} {
		v := run(req)
		if v.State != StateFailed || !strings.Contains(v.Error, "exceeds the 134217728-byte heap") {
			t.Fatalf("speculate=%v record=%v: state=%s error=%q, want failed on the heap bound", req.Speculate, req.Record, v.State, v.Error)
		}
	}
	if v := run(Request{Workload: "Huffman", Scale: 0.2, Record: true}); v.State != StateDone {
		t.Fatalf("follow-up job: state=%s error=%q", v.State, v.Error)
	}
	if n := pool.Metrics().JobsFailed.Load(); n != 3 {
		t.Errorf("jobs_failed=%d, want 3", n)
	}
}

// TestRunawayRecursionFailsJob: a submitted program that recurses
// without end fails its own job with the VM's call-depth fault, with or
// without speculation, and the server keeps serving. The recursion used
// to overflow the Go stack, a fatal error that took the daemon down.
func TestRunawayRecursionFailsJob(t *testing.T) {
	pool := NewPool(Config{Workers: 2})
	defer pool.Stop()
	srv := httptest.NewServer(NewServer(pool).Handler())
	defer srv.Close()

	const src = `func f(x: int): int { return f(x + 1); } func main() { print(f(0)); }`
	for _, speculate := range []bool{false, true} {
		v, err := runJob(srv.URL, Request{Source: src, Speculate: speculate})
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateFailed || !strings.Contains(v.Error, "call depth exceeds") {
			t.Fatalf("speculate=%v: state=%s error=%q, want failed on the call depth", speculate, v.State, v.Error)
		}
	}

	v, err := runJob(srv.URL, Request{Workload: "Huffman", Scale: 0.2, Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone {
		t.Fatalf("follow-up job: state=%s error=%q", v.State, v.Error)
	}
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	if n := pool.Metrics().JobsFailed.Load(); n != 2 {
		t.Errorf("jobs_failed=%d, want 2", n)
	}
}
