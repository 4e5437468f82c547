// Focused fault-machinery coverage: circuit-breaker half-open recovery
// and deterministic 4xx rejections, exercised deliberately rather than
// incidentally by the churn integration tests.
package cluster

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jrpm"
)

// failFirst rejects the first n shard requests with a 500, then serves
// normally — a worker that is sick and then recovers.
func failFirst(n int32) func(http.Handler) http.Handler {
	var count int32
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards") {
				if atomic.AddInt32(&count, 1) <= n {
					http.Error(w, `{"error":"injected failure"}`, http.StatusInternalServerError)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestClusterBreakerHalfOpenRecovery: consecutive failures open the
// breaker; after the cooldown the worker gets a half-open probe, and a
// recovered worker wins the sweep — no local fallback, results
// byte-identical.
func TestClusterBreakerHalfOpenRecovery(t *testing.T) {
	src, data := recordWorkload(t, "Huffman")
	cfgs := gridConfigs(4)
	want := localRows(t, src, data, cfgs)

	srv, _ := newTestWorker(t, failFirst(2))
	coord := New(Options{
		Workers:              []string{srv.URL},
		MaxAttempts:          10,
		RetryBase:            5 * time.Millisecond,
		RetryMax:             20 * time.Millisecond,
		BreakerThreshold:     2,
		BreakerCooldown:      40 * time.Millisecond,
		Sentinels:            -1,
		DisableLocalFallback: true, // recovery must come from the worker itself
	})
	res, err := coord.Sweep(context.Background(), Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, res.Outcomes[0]), canonical(t, want)) {
		t.Fatal("recovered sweep diverged from local sweep")
	}
	if res.Metrics.BreakerOpens < 1 {
		t.Errorf("breaker opens = %d, want >= 1 (two consecutive failures at threshold 2)", res.Metrics.BreakerOpens)
	}
	if res.Metrics.Failures < 2 {
		t.Errorf("failures = %d, want >= 2", res.Metrics.Failures)
	}
	if res.Metrics.LocalShards != 0 {
		t.Errorf("local shards = %d, want 0 (the half-open probe must recover the worker)", res.Metrics.LocalShards)
	}
}

// countShards counts the shard requests reaching a worker.
func countShards(n *int32) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards") {
				atomic.AddInt32(n, 1)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestClusterRejectionNotRetried: a worker's 4xx answer to a shard (other
// than trace_missing) is deterministic, so each shard is dispatched
// exactly once, the answer never counts toward the breaker, and the
// shard's configs come back as rows carrying the worker's message. The
// 409 is a recording paired with another program's source (program-hash
// mismatch); the 422 is a source that does not compile.
func TestClusterRejectionNotRetried(t *testing.T) {
	huffman, data := recordWorkload(t, "Huffman")
	lu, _ := recordWorkload(t, "LuFactor")
	cfgs := gridConfigs(6)
	shards := len(shardConfigs(cfgs))
	for _, tc := range []struct {
		name, source, wantErr string
	}{
		{"409", lu, "trace was not recorded from the shard's program (hash mismatch)"},
		{"422", huffman + "\nfunc broken(", "compile: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dispatched int32
			srv, _ := newTestWorker(t, countShards(&dispatched))
			coord := New(Options{
				Workers:              []string{srv.URL},
				RetryBase:            time.Millisecond,
				BreakerThreshold:     1,
				DisableLocalFallback: true, // a retried shard must not be rescued locally
			})
			res, err := coord.Sweep(context.Background(), Grid{
				Traces:  []GridTrace{{Name: "Huffman", Source: tc.source, Data: data}},
				Configs: cfgs,
				Opts:    jrpm.DefaultOptions(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := atomic.LoadInt32(&dispatched); int(n) != shards {
				t.Errorf("worker received %d shard requests, want %d (one per shard)", n, shards)
			}
			if m := res.Metrics; m.Failures != 0 || m.Retried != 0 || m.BreakerOpens != 0 || m.LocalShards != 0 {
				t.Errorf("failures %d, retries %d, breaker opens %d, local shards %d; want all 0",
					m.Failures, m.Retried, m.BreakerOpens, m.LocalShards)
			}
			for ci, row := range res.Outcomes[0] {
				if !strings.HasPrefix(row.Err, tc.wantErr) {
					t.Errorf("config %d: Err = %q, want the worker's message %q", ci, row.Err, tc.wantErr)
				}
			}
		})
	}
}
