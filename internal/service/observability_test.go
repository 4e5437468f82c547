package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"jrpm/internal/telemetry"
)

// obsServer builds a pool + traced server the way cmd/jrpmd does.
func obsServer(t *testing.T) (*Pool, *httptest.Server, *telemetry.Tracer) {
	t.Helper()
	pool := NewPool(Config{Workers: 2, QueueDepth: 8})
	t.Cleanup(pool.Stop)
	tracer := telemetry.NewTracer(telemetry.NewCollector(256))
	pool.SetTracer(tracer)
	srv := NewServer(pool)
	srv.Tracer = tracer
	ts := httptest.NewServer(telemetry.Middleware(tracer, srv.Handler()))
	t.Cleanup(ts.Close)
	return pool, ts, tracer
}

// TestPromEndpoint is the CI gate behind ".github/workflows/ci.yml":
// the Prometheus exposition must parse and must cover the daemon's
// queue, cache, input-memo and VM metric families.
func TestPromEndpoint(t *testing.T) {
	_, ts, _ := obsServer(t)

	if _, err := runJob(ts.URL, Request{Workload: "Huffman", Scale: 0.2}); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/metrics", "/v1/metrics?format=prom"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%s: content type %q", path, ct)
		}
		text := string(body)
		if err := telemetry.ValidateProm(text); err != nil {
			t.Fatalf("%s does not parse: %v\n%s", path, err, text)
		}
		for _, family := range []string{
			"jrpmd_jobs_submitted_total",
			"jrpmd_jobs_completed_total",
			"jrpmd_artifact_cache_misses_total",
			"jrpmd_queue_wait_seconds_bucket",
			"jrpmd_queue_wait_seconds_count",
			"jrpmd_run_time_seconds_sum",
			"jrpmd_queue_length",
			"jrpmd_trace_cache_bytes",
			"jrpmd_cycles_simulated_total",
			"jrpmd_vm_runs_total",
			"jrpmd_input_cache_hits_total",
			"jrpmd_input_cache_misses_total",
			"jrpmd_input_cache_bytes",
		} {
			if !strings.Contains(text, family) {
				t.Errorf("%s missing family %s", path, family)
			}
		}
		// The one workload job built its input: one miss, no hit.
		for _, sample := range []string{"jrpmd_input_cache_misses_total 1\n", "jrpmd_input_cache_hits_total 0\n"} {
			if !strings.Contains(text, sample) {
				t.Errorf("%s has no sample %q", path, strings.TrimSpace(sample))
			}
		}
	}
}

func TestReadyz(t *testing.T) {
	pool, ts, _ := obsServer(t)

	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v", resp.StatusCode, body)
	}

	// A draining pool must answer 503 so schedulers stop routing here,
	// while healthz keeps reporting liveness.
	pool.Stop()
	resp, err = http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body = nil
	json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("draining readyz = %d %v", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d", resp.StatusCode)
	}
}

// TestJobSpanJoinsSubmitterTrace submits a job under a client span and
// asserts the asynchronous job.run span lands in the same trace as the
// server's POST span.
func TestJobSpanJoinsSubmitterTrace(t *testing.T) {
	_, ts, tracer := obsServer(t)

	client := telemetry.NewTracer(telemetry.NewCollector(64))
	ctx, root := telemetry.StartSpan(
		telemetry.WithTracer(t.Context(), client), "test.submit")

	body := `{"workload": "Huffman", "scale": 0.2, "sample_period": 8192}`
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	telemetry.Inject(ctx, req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&acc) //nolint:errcheck
	resp.Body.Close()
	root.End()

	view, err := waitJob(ts.URL, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != StateDone {
		t.Fatalf("job %s: %s", view.State, view.Error)
	}
	if view.Result.Samples == nil || view.Result.Samples.Samples == 0 {
		t.Fatalf("sample_period job returned no samples: %+v", view.Result.Samples)
	}

	// Fetch the server-side spans for the client's trace.
	resp, err = http.Get(ts.URL + "/v1/traces/spans?trace_id=" + root.TraceID())
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []telemetry.SpanData `json:"spans"`
	}
	json.NewDecoder(resp.Body).Decode(&dump) //nolint:errcheck
	resp.Body.Close()

	names := map[string]bool{}
	for _, sd := range dump.Spans {
		if sd.TraceID != root.TraceID() {
			t.Fatalf("span %q in wrong trace %s", sd.Name, sd.TraceID)
		}
		names[sd.Name] = true
	}
	if !names["http POST /v1/jobs"] {
		t.Errorf("missing server span for the submit: %v", names)
	}
	if !names["job.run"] {
		t.Errorf("missing asynchronous job.run span: %v", names)
	}
	_ = tracer
}

// TestDoneImpliesRecorded: by the time a job's Done channel closes, its
// tenant's completion count includes it and its job.run span, carrying
// the final state, is in the collector. Waiters read both right after
// Done, so neither may be recorded after the job finishes.
func TestDoneImpliesRecorded(t *testing.T) {
	pool := NewPool(Config{Workers: 2, QueueDepth: 32})
	defer pool.Stop()
	col := telemetry.NewCollector(4096)
	pool.SetTracer(telemetry.NewTracer(col))

	var jobs []*Job
	for i := 0; i < 12; i++ {
		req := Request{Workload: "BitOps", Scale: 0.1, Tenant: []string{"a", "b", "c"}[i%3]}
		if i%4 == 3 {
			req = Request{Source: "this is not JR", Tenant: req.Tenant} // fails in the worker
		}
		j, err := pool.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	for _, j := range jobs {
		<-j.Done()
		// Every job whose Done has closed so far must be counted.
		done := map[string]int64{}
		for _, o := range jobs {
			select {
			case <-o.Done():
				done[o.Tenant]++
			default:
			}
		}
		for _, ts := range pool.Tenants() {
			if ts.Completed < done[ts.Tenant] {
				t.Fatalf("tenant %s: Completed=%d with %d jobs done", ts.Tenant, ts.Completed, done[ts.Tenant])
			}
		}
		var span *telemetry.SpanData
		for _, sd := range col.Snapshot("") {
			if sd.Name == "job.run" && sd.Attrs["job.id"] == j.ID {
				span = &sd
				break
			}
		}
		if span == nil {
			t.Fatalf("job %s done without its job.run span", j.ID)
		}
		if v := j.View(); span.Attrs["job.state"] != string(v.State) {
			t.Fatalf("job %s: span job.state=%q, job state %q", j.ID, span.Attrs["job.state"], v.State)
		}
	}
}
