package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jrpm"
	"jrpm/internal/telemetry"
	"jrpm/internal/workloads"
)

func postJob(base string, req Request) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", err
	}
	return sub.ID, nil
}

func waitJob(base, id string) (JobView, error) {
	var v JobView
	resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=1")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

// runJob submits and waits in one go; safe to call from any goroutine.
func runJob(base string, req Request) (JobView, error) {
	id, err := postJob(base, req)
	if err != nil {
		return JobView{}, err
	}
	return waitJob(base, id)
}

func getMetrics(t *testing.T, base string) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func mustWait(t *testing.T, j *Job) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	v, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServiceEndToEnd is the acceptance test: serve on a random port,
// submit concurrent jobs mixing distinct and duplicate sources, check
// every result's per-loop estimates, duplicate results' determinism, and
// the cache-hit accounting in /v1/metrics.
func TestServiceEndToEnd(t *testing.T) {
	pool := NewPool(Config{Workers: 4})
	defer pool.Stop()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	names := []string{"Huffman", "NumHeapSort", "compress", "deltaBlue"}
	const scale = 0.25

	// Wave 1: four distinct workloads in parallel — all cache misses.
	first := make([]JobView, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			first[i], errs[i] = runJob(ts.URL, Request{Workload: name, Scale: scale, Speculate: true})
		}(i, name)
	}
	wg.Wait()

	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		v := first[i]
		if v.State != StateDone {
			t.Fatalf("%s: job %s: %s", name, v.State, v.Error)
		}
		r := v.Result
		if r.CacheHit {
			t.Errorf("%s: first run claims a cache hit", name)
		}
		if r.CleanCycles <= 0 || r.TracedCycles < r.CleanCycles {
			t.Errorf("%s: implausible cycles clean=%d traced=%d", name, r.CleanCycles, r.TracedCycles)
		}
		if len(r.Loops) == 0 {
			t.Errorf("%s: no per-loop estimates", name)
		}
		for _, l := range r.Loops {
			if l.Name == "" || l.EstSpeedup < 0 {
				t.Errorf("%s: bad loop row %+v", name, l)
			}
		}
		if len(r.SelectedLoops) == 0 {
			t.Errorf("%s: Equation 2 selected nothing", name)
		}
		if r.ActualSpeedup <= 0 {
			t.Errorf("%s: missing TLS-simulated speedup", name)
		}
	}

	// Wave 2: every workload twice more, all 8 concurrent — the compile
	// stage must come from the cache, and results must be identical to
	// the first run.
	second := make([]JobView, 2*len(names))
	errs2 := make([]error, len(second))
	for i := range second {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := names[i%len(names)]
			second[i], errs2[i] = runJob(ts.URL, Request{Workload: name, Scale: scale, Speculate: true})
		}(i)
	}
	wg.Wait()

	for i, v := range second {
		name := names[i%len(names)]
		if errs2[i] != nil {
			t.Fatalf("dup %s: %v", name, errs2[i])
		}
		if v.State != StateDone {
			t.Fatalf("dup %s: job %s: %s", name, v.State, v.Error)
		}
		if !v.Result.CacheHit {
			t.Errorf("dup %s: expected cache hit", name)
		}
		want, got := first[i%len(names)].Result, v.Result
		if got.CleanCycles != want.CleanCycles || got.TracedCycles != want.TracedCycles {
			t.Errorf("dup %s: cycles differ: clean %d vs %d, traced %d vs %d",
				name, got.CleanCycles, want.CleanCycles, got.TracedCycles, want.TracedCycles)
		}
		if fmt.Sprint(got.SelectedLoops) != fmt.Sprint(want.SelectedLoops) {
			t.Errorf("dup %s: selected STLs differ: %v vs %v", name, got.SelectedLoops, want.SelectedLoops)
		}
	}

	m := getMetrics(t, ts.URL)
	if m.JobsSubmitted != int64(3*len(names)) || m.JobsCompleted != int64(3*len(names)) {
		t.Errorf("metrics: submitted=%d completed=%d, want %d each", m.JobsSubmitted, m.JobsCompleted, 3*len(names))
	}
	if m.CacheHits < int64(2*len(names)) {
		t.Errorf("metrics: cache_hits=%d, want >= %d", m.CacheHits, 2*len(names))
	}
	if m.CacheMisses != int64(len(names)) {
		t.Errorf("metrics: cache_misses=%d, want %d", m.CacheMisses, len(names))
	}
	if m.CacheSize != len(names) {
		t.Errorf("metrics: cache_size=%d, want %d", m.CacheSize, len(names))
	}
	if m.RunTime.Count != int64(3*len(names)) || m.QueueWait.Count != int64(3*len(names)) {
		t.Errorf("metrics: histogram counts run=%d wait=%d, want %d", m.RunTime.Count, m.QueueWait.Count, 3*len(names))
	}
	if m.CyclesSimulated <= 0 {
		t.Error("metrics: cycles_simulated not accounted")
	}

	// Health endpoint answers.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
}

// TestSpeculateCyclesSimulated pins jrpmd_cycles_simulated_total per
// speculate job: a speculate job executes the annotated program once
// (its event log feeds the TLS recorder), and so does one that also
// records a trace (the trace writer listens to the same run).
func TestSpeculateCyclesSimulated(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	for _, tc := range []struct {
		req  Request
		runs int64
	}{
		{Request{Workload: "Huffman", Scale: 0.2, Speculate: true}, 1},
		{Request{Workload: "Huffman", Scale: 0.2, Speculate: true, Record: true}, 1},
		{Request{Workload: "Huffman", Scale: 0.2}, 1},
	} {
		before := pool.Metrics().CyclesSimulated.Load()
		j, err := pool.Submit(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		v := mustWait(t, j)
		if v.State != StateDone {
			t.Fatalf("%+v: job %s: %s", tc.req, v.State, v.Error)
		}
		if tc.req.Speculate && v.Result.ActualSpeedup == 0 {
			t.Errorf("%+v: no speculation result", tc.req)
		}
		got := pool.Metrics().CyclesSimulated.Load() - before
		if want := tc.runs * v.Result.TracedCycles; got != want {
			t.Errorf("%+v: cycles_simulated rose by %d, want %d (%d runs of %d cycles)",
				tc.req, got, want, tc.runs, v.Result.TracedCycles)
		}
	}
}

// TestRecordSpeculateTrace: a job that records and speculates stores
// the bytes Compiled.ProfileRecord writes for the same program and
// input, with the summary the recording ends with, and reports the
// speculation a speculate-only job reports.
func TestRecordSpeculateTrace(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	req := Request{Workload: "Huffman", Scale: 0.2, Speculate: true, Record: true}
	var views []JobView
	for _, r := range []Request{req, {Workload: "Huffman", Scale: 0.2, Speculate: true}} {
		j, err := pool.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, mustWait(t, j))
	}
	both, spec := views[0], views[1]
	if both.State != StateDone || spec.State != StateDone {
		t.Fatalf("jobs %s %q and %s %q", both.State, both.Error, spec.State, spec.Error)
	}
	art, ok := pool.Traces().Get(both.Result.TraceKey)
	if !ok {
		t.Fatalf("no cached trace %q", both.Result.TraceKey)
	}

	w, err := workloads.ByName(req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	in := w.NewInput(req.Scale)
	c, err := jrpm.Compile(w.Source, req.options())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	pr, err := c.ProfileRecord(context.Background(), in, req.options(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art.Data, buf.Bytes()) {
		t.Errorf("record+speculate trace (%d bytes) differs from ProfileRecord's (%d bytes)", len(art.Data), buf.Len())
	}
	if int64(len(art.Data)) != both.Result.TraceBytes {
		t.Errorf("trace_bytes %d, stored %d", both.Result.TraceBytes, len(art.Data))
	}
	if want := pr.TraceSummary(); art.Summary != want {
		t.Errorf("stored summary %+v, want %+v", art.Summary, want)
	}
	if both.Result.ActualSpeedup != spec.Result.ActualSpeedup ||
		!reflect.DeepEqual(both.Result.Loops, spec.Result.Loops) {
		t.Errorf("record+speculate speculation %v differs from speculate-only %v",
			both.Result.ActualSpeedup, spec.Result.ActualSpeedup)
	}
}

// TestSubmitValidation: unresolvable requests are rejected at submit time
// with 400, not queued.
func TestSubmitValidation(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	for _, body := range []string{
		`{}`,
		`{"workload":"NoSuchBenchmark"}`,
		`{"workload":"Huffman","source":"int main() {}"}`,
		`{"bogus_field":1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	if n := pool.Metrics().JobsSubmitted.Load(); n != 0 {
		t.Errorf("invalid requests were queued: submitted=%d", n)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/j00000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestCompileErrorFailsJob: a program that does not compile produces a
// failed job, not a dead worker.
func TestCompileErrorFailsJob(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()

	j, err := pool.Submit(Request{Source: "this is not JR"})
	if err != nil {
		t.Fatal(err)
	}
	if v := mustWait(t, j); v.State != StateFailed || v.Error == "" {
		t.Fatalf("state=%s error=%q, want failed with message", v.State, v.Error)
	}

	// The worker survives and still runs good jobs.
	j2, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if v := mustWait(t, j2); v.State != StateDone {
		t.Fatalf("follow-up job: state=%s error=%q", v.State, v.Error)
	}
}

// TestPanicRecovery: a panic inside the pipeline is isolated to its job.
func TestPanicRecovery(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	pool.testHook = func(j *Job) {
		if strings.Contains(j.Req.Source, "PANIC") {
			panic("injected failure")
		}
	}

	bad, err := pool.Submit(Request{Source: "// PANIC\nint main() { return 0; }"})
	if err != nil {
		t.Fatal(err)
	}
	if v := mustWait(t, bad); v.State != StateFailed || !strings.Contains(v.Error, "panic") {
		t.Fatalf("state=%s error=%q, want failed with panic message", v.State, v.Error)
	}

	good, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if v := mustWait(t, good); v.State != StateDone {
		t.Fatalf("pool did not survive the panic: state=%s error=%q", v.State, v.Error)
	}
	if n := pool.Metrics().JobsFailed.Load(); n != 1 {
		t.Errorf("jobs_failed=%d, want 1", n)
	}
}

// TestJobTimeout: a job exceeding its deadline is interrupted mid-run and
// fails with a timeout message.
func TestJobTimeout(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()

	// ~200M VM steps: many seconds of simulation, far past the deadline.
	slow := `
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
	j, err := pool.Submit(Request{
		Source:    slow,
		Ints:      map[string][]int64{"a": {0}},
		TimeoutMs: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := mustWait(t, j); v.State != StateFailed || !strings.Contains(v.Error, "timeout") {
		t.Fatalf("state=%s error=%q, want failed with timeout", v.State, v.Error)
	}
	if n := pool.Metrics().JobsFailed.Load(); n != 1 {
		t.Errorf("jobs_failed=%d, want 1", n)
	}
}

// TestQueueFullRejects: the bounded queue sheds load with ErrQueueFull,
// which the HTTP layer answers with 429 and Retry-After.
func TestQueueFullRejects(t *testing.T) {
	pool := NewPool(Config{Workers: 1, QueueDepth: 1})
	defer pool.Stop()
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	pool.testHook = func(*Job) {
		started <- struct{}{}
		<-release
	}
	defer close(release)

	// First job occupies the worker...
	if _, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first job")
	}
	// ...second fills the queue slot, third must bounce.
	if _, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2}); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2}); err != ErrQueueFull {
		t.Fatalf("third submit: err=%v, want ErrQueueFull", err)
	}
	if n := pool.Metrics().JobsRejected.Load(); n != 1 {
		t.Errorf("jobs_rejected=%d, want 1", n)
	}
	// The refused job left nothing behind in the run table.
	if _, ok := pool.Get("j00000003"); ok || pool.Active() != 2 {
		t.Errorf("refused job reachable %v, %d live jobs; want false, 2", ok, pool.Active())
	}

	srv := httptest.NewServer(NewServer(pool).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"Huffman","scale":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submission: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
}

// TestCancelQueuedAndRunning covers both cancellation paths. A queued
// job canceled gives its queue slot back at once.
func TestCancelQueuedAndRunning(t *testing.T) {
	pool := NewPool(Config{Workers: 1, QueueDepth: 1})
	defer pool.Stop()
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	pool.testHook = func(*Job) {
		started <- struct{}{}
		<-release
	}

	running, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job: it terminates immediately, never runs.
	if out, err := pool.Cancel(queued.ID); err != nil || out != CancelQueued {
		t.Fatalf("cancel queued: outcome=%v err=%v", out, err)
	}
	if v := queued.View(); v.State != StateCanceled {
		t.Fatalf("queued job state=%s, want canceled", v.State)
	}
	if n := pool.QueueLength(); n != 0 {
		t.Errorf("queue length %d after canceling the only queued job, want 0", n)
	}
	// Errorf, not Fatalf, until release is closed: the deferred Stop
	// waits for the blocked worker.
	next, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2})
	if err != nil {
		t.Errorf("submit into the freed slot: %v", err)
	}

	// Cancel the running job, then let the hook return: the canceled
	// context interrupts the pipeline.
	if out, err := pool.Cancel(running.ID); err != nil || out != CancelRequested {
		t.Fatalf("cancel running: outcome=%v err=%v", out, err)
	}
	close(release)
	if v := mustWait(t, running); v.State != StateCanceled {
		t.Fatalf("running job state=%s error=%q, want canceled", v.State, v.Error)
	}
	if next != nil {
		if v := mustWait(t, next); v.State != StateDone {
			t.Fatalf("job in the freed slot: state=%s error=%q, want done", v.State, v.Error)
		}
	}
	if n := pool.Metrics().JobsCanceled.Load(); n != 2 {
		t.Errorf("jobs_canceled=%d, want 2", n)
	}
}

// TestCacheLRU: eviction order and recency refresh.
func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	a, b, d := &jrpm.Compiled{}, &jrpm.Compiled{}, &jrpm.Compiled{}
	c.Put("a", a)
	c.Put("b", b)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("d", d)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v != a {
		t.Error("a lost")
	}
	if v, ok := c.Get("d"); !ok || v != d {
		t.Error("d lost")
	}
	if c.Len() != 2 {
		t.Errorf("len=%d, want 2", c.Len())
	}
}

// TestCachePutAllocs: on the one LRU, storing a new artifact allocates
// its list element (and the artifact cache its entry), storing one
// already cached allocates nothing, and neither does a memo hit.
func TestCachePutAllocs(t *testing.T) {
	keys := make([]string, 100)
	arts := make([]*TraceArtifact, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprint("k", i)
		arts[i] = &TraceArtifact{Key: keys[i], Data: make([]byte, 10)}
	}
	c, trc, comp := NewCache(8), NewTraceCache(100), &jrpm.Compiled{}
	i := 0
	next := func() int { i++; return i % len(keys) }
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	m := newInputMemo(inputMemoBytes)
	m.get(w, 0.2)
	for _, tc := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"Cache.Put new", 2, func() { c.Put(keys[next()], comp) }},
		{"Cache.Put cached", 0, func() { c.Put(keys[i%len(keys)], comp) }},
		{"TraceCache.Put new", 1, func() { trc.Put(arts[next()]) }},
		{"TraceCache.Put cached", 0, func() { trc.Put(arts[i%len(keys)]) }},
		{"input memo hit", 0, func() { m.get(w, 0.2) }},
	} {
		if n := testing.AllocsPerRun(200, tc.op); n > tc.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", tc.name, n, tc.max)
		}
	}
}

// TestCacheKey: compile-stage options split the key; run-stage options do
// not.
func TestCacheKey(t *testing.T) {
	src := "int main() { return 0; }"
	base := CacheKey(src, jrpm.Options{})
	if CacheKey(src, jrpm.DefaultOptions()) != base {
		t.Error("zero options and explicit defaults should share a key")
	}
	if CacheKey(src+" ", jrpm.Options{}) == base {
		t.Error("different sources share a key")
	}
	if CacheKey(src, jrpm.Options{Optimize: true}) == base {
		t.Error("optimize must split the key")
	}
	runtimeOnly := jrpm.DefaultOptions()
	runtimeOnly.Select.MinSpeedup = 3
	runtimeOnly.Tracer.Extended = true
	if CacheKey(src, runtimeOnly) != base {
		t.Error("run-stage options must not split the key")
	}
}

// TestHistogram: bucket boundaries and summary stats, through the real
// registry-backed construction path.
func TestHistogram(t *testing.T) {
	h := newMetrics(telemetry.NewRegistry()).QueueWait
	h.Observe(50 * time.Microsecond)  // bucket 0: < 100us
	h.Observe(500 * time.Microsecond) // bucket 1: < 1ms
	h.Observe(2 * time.Second)        // bucket 5: < 10s
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count=%d", s.Count)
	}
	want := []int64{1, 1, 0, 0, 0, 1, 0}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Fatalf("buckets=%v, want %v", s.Buckets, want)
		}
	}
	if s.MaxMS < 1999 || s.MaxMS > 2001 {
		t.Errorf("max_ms=%.1f", s.MaxMS)
	}
}

// TestTraceJobs drives the record/analyze job kinds over HTTP: record a
// workload's trace, fan an analyze_trace job over several machine
// configurations, and check the default-configuration row agrees with
// the recording job's own selection. Also covers the trace-cache section
// of /v1/metrics.
func TestTraceJobs(t *testing.T) {
	pool := NewPool(Config{Workers: 2})
	defer pool.Stop()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	rec, err := runJob(ts.URL, Request{Workload: "Huffman", Scale: 0.25, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateDone {
		t.Fatalf("record job %s: %s", rec.State, rec.Error)
	}
	if rec.Result.TraceKey == "" || rec.Result.TraceBytes <= 0 {
		t.Fatalf("record result lacks trace artifact: key=%q bytes=%d",
			rec.Result.TraceKey, rec.Result.TraceBytes)
	}

	configs := []TraceConfig{
		{}, // default hydra config — must match the recording job's own analysis
		{Banks: 1},
		{Banks: 2},
		{HeapStoreLines: 1},
		{Banks: 8, HeapStoreLines: 64},
	}
	ana, err := runJob(ts.URL, Request{AnalyzeTrace: rec.Result.TraceKey, Configs: configs})
	if err != nil {
		t.Fatal(err)
	}
	if ana.State != StateDone {
		t.Fatalf("analyze job %s: %s", ana.State, ana.Error)
	}
	r := ana.Result
	if r.TraceKey != rec.Result.TraceKey || r.TraceBytes != rec.Result.TraceBytes {
		t.Errorf("analyze echoes wrong artifact: key=%q bytes=%d", r.TraceKey, r.TraceBytes)
	}
	if r.CleanCycles != rec.Result.CleanCycles || r.TracedCycles != rec.Result.TracedCycles {
		t.Errorf("cycle totals drifted: clean %d vs %d, traced %d vs %d",
			r.CleanCycles, rec.Result.CleanCycles, r.TracedCycles, rec.Result.TracedCycles)
	}
	if len(r.Sweep) != len(configs) {
		t.Fatalf("sweep rows=%d, want %d", len(r.Sweep), len(configs))
	}
	def := r.Sweep[0]
	if fmt.Sprint(def.SelectedLoops) != fmt.Sprint(rec.Result.SelectedLoops) {
		t.Errorf("default-config replay selected %v, live run selected %v",
			def.SelectedLoops, rec.Result.SelectedLoops)
	}
	if def.PredictedSpeedup != rec.Result.PredictedSpeedup {
		t.Errorf("default-config replay predicted %v, live run %v",
			def.PredictedSpeedup, rec.Result.PredictedSpeedup)
	}
	for i, row := range r.Sweep {
		if row.Banks <= 0 || row.HeapStoreLines <= 0 {
			t.Errorf("row %d: unresolved config %+v", i, row)
		}
		if row.PredictedSpeedup < 1 {
			t.Errorf("row %d: predicted speedup %v < 1", i, row.PredictedSpeedup)
		}
	}

	m := getMetrics(t, ts.URL)
	if m.TraceCache.Count != 1 {
		t.Errorf("trace_cache.count=%d, want 1", m.TraceCache.Count)
	}
	// The artifact is charged its trace bytes plus its program's heap.
	art, ok := pool.Traces().Get(rec.Result.TraceKey)
	if !ok {
		t.Fatal("recorded trace is not in the trace cache")
	}
	if int64(len(art.Data)) != rec.Result.TraceBytes {
		t.Errorf("cached trace holds %d bytes, result reports %d", len(art.Data), rec.Result.TraceBytes)
	}
	if want := rec.Result.TraceBytes + art.Compiled.HeapBytes(); m.TraceCache.Bytes != want {
		t.Errorf("trace_cache.bytes=%d, want %d", m.TraceCache.Bytes, want)
	}
	if m.TraceCache.Hits < 1 || m.TraceCache.HitRatio <= 0 {
		t.Errorf("trace_cache hit accounting: hits=%d ratio=%v",
			m.TraceCache.Hits, m.TraceCache.HitRatio)
	}

	// Unknown key: the job runs but fails (the submit-time validator can't
	// know cache contents).
	miss, err := runJob(ts.URL, Request{AnalyzeTrace: "deadbeef"})
	if err != nil {
		t.Fatal(err)
	}
	if miss.State != StateFailed || !strings.Contains(miss.Error, "no cached trace") {
		t.Errorf("unknown trace key: state=%s err=%q", miss.State, miss.Error)
	}
}

// TestBackToBackRecordsKeepTheirTraces: two record jobs on different
// programs, back to back through a one-worker pool, write their traces
// into one reused buffer. The first job's cached trace must still hash
// to its key and replay to the first job's own result. The free list is
// drained first, so the first job's buffer is new and grows to fit its
// trace: a buffer TraceCache.Put would keep rather than copy, had the
// job handed it over.
func TestBackToBackRecordsKeepTheirTraces(t *testing.T) {
	for range runtime.GOMAXPROCS(0) + 1 {
		traceBufs.Get()
	}
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	run := func(req Request) *Result {
		t.Helper()
		j, err := pool.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		v, err := j.Wait(context.Background())
		if err != nil || v.State != StateDone {
			t.Fatalf("%s job: %s %v %s", req.Workload, v.State, err, v.Error)
		}
		return v.Result
	}
	first := run(Request{Workload: "Huffman", Scale: 0.1, Record: true})
	second := run(Request{Workload: "BitOps", Scale: 0.1, Record: true})
	if first.TraceKey == second.TraceKey {
		t.Fatal("the two programs recorded the same trace")
	}

	art, ok := pool.Traces().Get(first.TraceKey)
	if !ok {
		t.Fatal("the first recording is not in the trace cache")
	}
	if got := TraceKeyOf(art.Data); got != first.TraceKey || int64(len(art.Data)) != first.TraceBytes {
		t.Fatalf("cached trace hashes to %s (%d bytes), recorded as %s (%d bytes)",
			got, len(art.Data), first.TraceKey, first.TraceBytes)
	}
	r := run(Request{AnalyzeTrace: first.TraceKey})
	row := r.Sweep[0]
	if r.CleanCycles != first.CleanCycles || r.TracedCycles != first.TracedCycles ||
		fmt.Sprint(row.SelectedLoops) != fmt.Sprint(first.SelectedLoops) ||
		row.PredictedSpeedup != first.PredictedSpeedup {
		t.Errorf("replay: cycles %d/%d, selected %v, speedup %v; recording job: %d/%d, %v, %v",
			r.CleanCycles, r.TracedCycles, row.SelectedLoops, row.PredictedSpeedup,
			first.CleanCycles, first.TracedCycles, first.SelectedLoops, first.PredictedSpeedup)
	}
}

// TestTraceRequestValidation: malformed analyze_trace combinations are
// rejected at submit time.
func TestTraceRequestValidation(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	bad := []Request{
		{AnalyzeTrace: "k", Workload: "Huffman"},
		{AnalyzeTrace: "k", Source: "int main() { return 0; }"},
		{AnalyzeTrace: "k", Record: true},
		{AnalyzeTrace: "k", Speculate: true},
		{Workload: "Huffman", Configs: []TraceConfig{{Banks: 4}}},
	}
	for i, req := range bad {
		if _, err := pool.Submit(req); err == nil {
			t.Errorf("request %d accepted, want validation error", i)
		}
	}
	if _, err := pool.Submit(Request{AnalyzeTrace: "k"}); err != nil {
		t.Errorf("bare analyze_trace rejected at submit: %v", err)
	}
}

// TestTraceCacheEviction: the byte-bounded LRU evicts oldest-first and
// keeps its byte accounting exact.
func TestTraceCacheEviction(t *testing.T) {
	c := NewTraceCache(100)
	mk := func(fill byte, n int) *TraceArtifact {
		return &TraceArtifact{Data: bytes.Repeat([]byte{fill}, n)}
	}
	k1 := c.Put(mk(1, 40))
	k2 := c.Put(mk(2, 40))
	if _, ok := c.Get(k1); !ok { // refresh k1; k2 becomes LRU
		t.Fatal("k1 missing")
	}
	k3 := c.Put(mk(3, 40))
	if _, ok := c.Get(k2); ok {
		t.Error("k2 should have been evicted")
	}
	if _, ok := c.Get(k1); !ok {
		t.Error("k1 lost")
	}
	if _, ok := c.Get(k3); !ok {
		t.Error("k3 lost")
	}
	s := c.Snapshot()
	if s.Count != 2 || s.Bytes != 80 {
		t.Errorf("count=%d bytes=%d, want 2/80", s.Count, s.Bytes)
	}
	// Oversized artifacts are content-addressed but not stored.
	big := c.Put(mk(4, 200))
	if _, ok := c.Get(big); ok {
		t.Error("oversized artifact should not be cached")
	}
	if c.Snapshot().Bytes != 80 {
		t.Errorf("bytes=%d after oversized put, want 80", c.Snapshot().Bytes)
	}
}

// TestTraceCacheChargesProgram: an artifact is charged its trace bytes
// plus the heap of the compiled program it pins, so a cache with room
// for one program evicts on the second artifact, and a Data with a
// grown buffer's spare capacity is stored clipped to its length.
func TestTraceCacheChargesProgram(t *testing.T) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jrpm.Compile(w.Source, jrpm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	heap := prog.HeapBytes()
	if heap <= 0 {
		t.Fatalf("HeapBytes = %d, want > 0", heap)
	}
	c := NewTraceCache(heap + 1500)
	mk := func(fill byte) *TraceArtifact {
		data := make([]byte, 1000, 1<<16)
		for i := range data {
			data[i] = fill
		}
		return &TraceArtifact{Data: data, Compiled: prog}
	}
	a1 := mk(1)
	k1 := c.Put(a1)
	if s := c.Snapshot(); s.Count != 1 || s.Bytes != 1000+heap {
		t.Errorf("count=%d bytes=%d, want 1/%d", s.Count, s.Bytes, 1000+heap)
	}
	if cap(a1.Data) > 1000+1000/8 {
		t.Errorf("stored Data keeps capacity %d for 1000 bytes", cap(a1.Data))
	}
	k2 := c.Put(mk(2))
	if _, ok := c.Get(k1); ok {
		t.Error("first artifact should have been evicted: two programs exceed the cache")
	}
	if _, ok := c.Get(k2); !ok {
		t.Error("second artifact lost")
	}
	if s := c.Snapshot(); s.Count != 1 || s.Bytes != 1000+heap {
		t.Errorf("count=%d bytes=%d after eviction, want 1/%d", s.Count, s.Bytes, 1000+heap)
	}
}

// TestRecordReplacesPushedTrace: when a coordinator has pushed a
// recording (bytes, no program) and a record job then produces the same
// bytes, the cache keeps the job's artifact with its program, charged
// for it, so analyze_trace replays the key the job returned.
func TestRecordReplacesPushedTrace(t *testing.T) {
	rec := Request{Workload: "Huffman", Scale: 0.2, Record: true}
	record := func(pool *Pool) string {
		t.Helper()
		j, err := pool.Submit(rec)
		if err != nil {
			t.Fatal(err)
		}
		v := mustWait(t, j)
		if v.State != StateDone {
			t.Fatalf("record job: %s %s", v.State, v.Error)
		}
		return v.Result.TraceKey
	}
	elsewhere := NewPool(Config{Workers: 1})
	defer elsewhere.Stop()
	pushed, ok := elsewhere.Traces().Get(record(elsewhere))
	if !ok {
		t.Fatal("recorded trace not cached")
	}

	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	pool.Traces().Put(&TraceArtifact{Key: pushed.Key, Data: pushed.Data})
	key := record(pool)
	if key != pushed.Key {
		t.Fatalf("record job key %s, want the pushed key %s", key, pushed.Key)
	}
	j, err := pool.Submit(Request{AnalyzeTrace: key})
	if err != nil {
		t.Fatal(err)
	}
	if v := mustWait(t, j); v.State != StateDone {
		t.Fatalf("analyze_trace of the record job's key: %s %s", v.State, v.Error)
	}
	art, _ := pool.Traces().Get(key)
	if s := pool.Traces().Snapshot(); art.Compiled == nil || s.Count != 1 || s.Bytes != int64(len(art.Data))+art.Compiled.HeapBytes() {
		t.Errorf("cache holds %d artifacts, %d bytes, program %v; want 1 artifact charged its bytes and program", s.Count, s.Bytes, art.Compiled != nil)
	}
}

// TestFinishedJobRetention: the pool keeps a bounded number of finished
// jobs. Past the bound the oldest finished jobs are forgotten and a GET
// of one answers exactly like a GET of an id that never existed.
func TestFinishedJobRetention(t *testing.T) {
	pool := NewPool(Config{Workers: 1, QueueDepth: 1})
	defer pool.Stop()
	bound := pool.Config().retainFinished()
	var ids []string
	for i := 0; i < bound+3; i++ {
		j, err := pool.Submit(Request{Workload: "Huffman", Scale: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if v := mustWait(t, j); v.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", j.ID, v.State, v.Error)
		}
		ids = append(ids, j.ID)
	}
	for i, id := range ids {
		_, ok := pool.Get(id)
		if evicted := i < 3; ok == evicted {
			t.Errorf("job %d (%s): retained=%v, want %v", i, id, ok, !evicted)
		}
	}

	srv := httptest.NewServer(NewServer(pool).Handler())
	defer srv.Close()
	get := func(id string) (int, string) {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	ec, eb := get(ids[0])
	uc, ub := get("j99999999")
	if ec != http.StatusNotFound || ec != uc || eb != ub {
		t.Errorf("evicted id: %d %q; unknown id: %d %q", ec, eb, uc, ub)
	}
	if c, _ := get(ids[len(ids)-1]); c != http.StatusOK {
		t.Errorf("retained id: HTTP %d, want 200", c)
	}
}
