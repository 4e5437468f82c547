package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"jrpm"
	"jrpm/internal/fleet"
	"jrpm/internal/service"
	"jrpm/internal/telemetry"
)

// newTestWorkerPool is newTestWorker but hands back the underlying pool
// so a test can drain it.
func newTestWorkerPool(t *testing.T) (*httptest.Server, *service.Pool) {
	t.Helper()
	pool := service.NewPool(service.Config{Workers: 2})
	t.Cleanup(pool.Stop)
	w := NewWorker(pool)
	mux := http.NewServeMux()
	w.Register(mux)
	service.NewServer(pool).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, pool
}

// tracedWorker assembles the full jrpmd -worker observability stack: a
// pool with a tracer, the service API and cluster worker routes on one
// mux (GET /v1/traces/spans next to the worker's PUT /v1/traces/{hash}),
// all under telemetry.Middleware.
func tracedWorker(t *testing.T) (addr string, col *telemetry.Collector) {
	t.Helper()
	pool := service.NewPool(service.Config{Workers: 2})
	t.Cleanup(pool.Stop)
	col = telemetry.NewCollector(512)
	tr := telemetry.NewTracer(col)
	pool.SetTracer(tr)
	api := service.NewServer(pool)
	api.Tracer = tr
	w := NewWorker(pool)
	mux := http.NewServeMux()
	w.Register(mux)
	api.Register(mux)
	srv := httptest.NewServer(telemetry.Middleware(tr, mux))
	t.Cleanup(srv.Close)
	return srv.Listener.Addr().String(), col
}

// TestClusterStitchedTrace is the distributed-tracing acceptance check:
// a two-worker sweep run under one client span must yield spans on the
// coordinator AND on both workers that all carry the same trace ID —
// scheduling, shard dispatch, trace push, and worker-side replay
// stitched into a single trace.
func TestClusterStitchedTrace(t *testing.T) {
	addr1, col1 := tracedWorker(t)
	addr2, col2 := tracedWorker(t)

	src, data := recordWorkload(t, "Huffman")
	cfgs := gridConfigs(6)

	coordCol := telemetry.NewCollector(512)
	ctx := telemetry.WithTracer(context.Background(), telemetry.NewTracer(coordCol))
	ctx, root := telemetry.StartSpan(ctx, "test.sweep")

	c := New(Options{Membership: fleet.Static{addr1, addr2}})
	res, err := c.Sweep(ctx, Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, localRows(t, src, data, cfgs))
	got := canonical(t, res.Outcomes[0])
	if string(want) != string(got) {
		t.Fatal("distributed sweep diverged from local sweep")
	}

	trace := root.TraceID()
	coordSpans := coordCol.Snapshot(trace)
	names := map[string]int{}
	for _, sd := range coordSpans {
		names[sd.Name]++
	}
	for _, name := range []string{"cluster.sweep", "shard.dispatch", "trace.push", "sweep.merge"} {
		if names[name] == 0 {
			t.Errorf("coordinator trace missing %q span: %v", name, names)
		}
	}

	// Every worker that executed shards must hold server spans joined to
	// the SAME trace as the client root span, delivered over traceparent.
	workerNames := map[string]int{}
	stitched := 0
	for i, col := range []*telemetry.Collector{col1, col2} {
		spans := col.Snapshot(trace)
		if len(spans) == 0 {
			t.Errorf("worker %d collected no spans for trace %s", i, trace)
		}
		stitched += len(spans)
		for _, sd := range spans {
			if sd.TraceID != trace {
				t.Fatalf("worker %d span %q in trace %s, want %s", i, sd.Name, sd.TraceID, trace)
			}
			workerNames[sd.Name]++
		}
	}
	if workerNames["shard.replay"] == 0 {
		t.Errorf("no worker-side shard.replay spans: %v", workerNames)
	}
	if workerNames["http POST /v1/shards"] == 0 {
		t.Errorf("no worker-side HTTP server spans: %v", workerNames)
	}
	t.Logf("stitched %d coordinator + %d worker spans under one trace", len(coordSpans), stitched)

	// The spans must also be reachable over HTTP on a worker, next to
	// its PUT /v1/traces/{hash} route (this is what jrpm sweep
	// -trace-out fetches to stitch the trace file).
	resp, err := http.Get("http://" + addr1 + "/v1/traces/spans?trace_id=" + trace)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []telemetry.SpanData `json:"spans"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if derr != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/spans = HTTP %d, decode err %v", resp.StatusCode, derr)
	}
	if len(dump.Spans) == 0 {
		t.Error("HTTP span fetch returned no spans")
	}
}

// TestClusterReadyzPreflight: a draining worker answers /v1/readyz with
// 503 and must be excluded by the preflight, with the sweep proceeding
// on the remaining fleet.
func TestClusterReadyzPreflight(t *testing.T) {
	srv1, _ := newTestWorker(t, nil)
	srv2, w2pool := newTestWorkerPool(t)

	src, data := recordWorkload(t, "BitOps")
	cfgs := gridConfigs(4)

	// Drain worker 2: its pool stops, so /v1/readyz flips to 503 while
	// /v1/version keeps answering.
	w2pool.Stop()

	var buf strings.Builder
	c := New(Options{
		Membership: fleet.Static{srv1.Listener.Addr().String(), srv2.Listener.Addr().String()},
		Logger:     telemetry.NewLogger(&buf, telemetry.LevelDebug),
	})
	c.sentinels = 0
	res, err := c.Sweep(context.Background(), Grid{
		Traces:  []GridTrace{{Name: "BitOps", Source: src, Data: data}},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range res.Metrics.Workers {
		if ws.Worker == srv2.Listener.Addr().String() && ws.Dispatched > 0 {
			t.Errorf("draining worker received %d dispatches", ws.Dispatched)
		}
	}
	if !strings.Contains(buf.String(), "draining") {
		t.Errorf("exclusion not logged: %q", buf.String())
	}
	want := canonical(t, localRows(t, src, data, cfgs))
	if string(want) != string(canonical(t, res.Outcomes[0])) {
		t.Fatal("sweep on reduced fleet diverged from local sweep")
	}
}

// TestClusterMetricsProm: the sweep's counter registry and a worker's
// RegisterProm families render as valid Prometheus text.
func TestClusterMetricsProm(t *testing.T) {
	m := newMetrics()
	m.onDispatch("w1")
	m.onDispatch("w2")
	m.onRetry()
	m.onPush("w1")
	var buf strings.Builder
	if err := m.Registry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := telemetry.ValidateProm(text); err != nil {
		t.Fatalf("sweep registry does not parse: %v\n%s", err, text)
	}
	for _, family := range []string{
		"jrpm_sweep_shards_dispatched_total 2",
		"jrpm_sweep_shards_retried_total 1",
		"jrpm_sweep_trace_pushes_total 1",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("sweep prom missing %q:\n%s", family, text)
		}
	}

	_, w := newTestWorker(t, nil)
	reg := telemetry.NewRegistry()
	w.RegisterProm(reg)
	buf.Reset()
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text = buf.String()
	if err := telemetry.ValidateProm(text); err != nil {
		t.Fatalf("worker registry does not parse: %v\n%s", err, text)
	}
	for _, family := range []string{
		"jrpmd_cluster_shards_executed_total",
		"jrpmd_cluster_configs_swept_total",
		"jrpmd_cluster_trace_pushes_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("worker prom missing %q", family)
		}
	}
}
