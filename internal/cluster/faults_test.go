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
	"jrpm/internal/core"
	"jrpm/internal/fleet"
	"jrpm/internal/trace"
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
		Membership:           fleet.Static{srv.URL},
		DisableLocalFallback: true, // recovery must come from the worker itself
	})
	coord.maxAttempts = 10
	coord.retryBase = 5 * time.Millisecond
	coord.retryMax = 20 * time.Millisecond
	coord.breakerThreshold = 2
	coord.breakerCooldown = 40 * time.Millisecond
	coord.sentinels = 0
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
// than trace_missing) is deterministic, so no shard is dispatched twice
// and the answer never counts toward the breaker. The 409 is a recording
// paired with another program's source (program-hash mismatch): each
// shard is dispatched once and its configs come back as rows carrying
// the worker's message, the error a local sweep's rows carry. The 422 is
// a source that does not compile: the sweep fails with a local sweep's
// error, at most one dispatch per shard.
func TestClusterRejectionNotRetried(t *testing.T) {
	huffman, data := recordWorkload(t, "Huffman")
	lu, _ := recordWorkload(t, "LuFactor")
	cfgs := gridConfigs(6)
	shards := len(core.Groups(cfgs))
	for _, tc := range []struct {
		name, source, wantRowErr, wantErr string
	}{
		{"409", lu, trace.ErrHashMismatch.Error(), ""},
		{"422", huffman + "\nfunc broken(", "", "cluster: compile Huffman: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dispatched int32
			srv, _ := newTestWorker(t, countShards(&dispatched))
			// The worker holds the recording up front, so no shard
			// request is a trace_missing round trip.
			pushTrace(t, srv.URL, data)
			coord := New(Options{
				Membership:           fleet.Static{srv.URL},
				DisableLocalFallback: true, // a retried shard must not be rescued locally
			})
			coord.retryBase = time.Millisecond
			coord.breakerThreshold = 1
			res, err := coord.Sweep(context.Background(), Grid{
				Traces:  []GridTrace{{Name: "Huffman", Source: tc.source, Data: data}},
				Configs: cfgs,
				Opts:    jrpm.DefaultOptions(),
			})
			n := int(atomic.LoadInt32(&dispatched))
			if tc.wantErr != "" {
				if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
					t.Fatalf("sweep error %v, want one starting %q", err, tc.wantErr)
				}
				if n < 1 || n > shards {
					t.Errorf("worker received %d shard requests, want 1 to %d (at most one per shard)", n, shards)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if n != shards {
				t.Errorf("worker received %d shard requests, want %d (one per shard)", n, shards)
			}
			if m := res.Metrics; m.Failures != 0 || m.Retried != 0 || m.BreakerOpens != 0 || m.LocalShards != 0 {
				t.Errorf("failures %d, retries %d, breaker opens %d, local shards %d; want all 0",
					m.Failures, m.Retried, m.BreakerOpens, m.LocalShards)
			}
			for ci, row := range res.Outcomes[0] {
				if row.Err != tc.wantRowErr {
					t.Errorf("config %d: Err = %q, want the worker's message %q", ci, row.Err, tc.wantRowErr)
				}
			}
		})
	}
}

// TestClusterErrorsMatchLocal: a sweep fails the same way locally and on
// a two-worker fleet. A recording paired with another program's source
// gives the same failed rows, byte for byte in Canonical form; a source
// that does not compile fails the sweep with the same error.
func TestClusterErrorsMatchLocal(t *testing.T) {
	huffman, data := recordWorkload(t, "Huffman")
	lu, _ := recordWorkload(t, "LuFactor")
	cfgs := gridConfigs(6)
	srv1, _ := newTestWorker(t, nil)
	srv2, _ := newTestWorker(t, nil)
	coord := New(Options{Membership: fleet.Static{srv1.URL, srv2.URL}, DisableLocalFallback: true})
	ctx := context.Background()
	opts := jrpm.DefaultOptions()

	t.Run("hash mismatch", func(t *testing.T) {
		local, err := Local{}.SweepRecording(ctx, "Huffman", lu, data, cfgs, opts)
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := coord.SweepRecording(ctx, "Huffman", lu, data, cfgs, opts)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := Canonical(local)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := Canonical(fleet)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lb, fb) {
			t.Fatalf("fleet rows differ from local rows:\nfleet %s\nlocal %s", fb, lb)
		}
		if local[0].Err == "" {
			t.Fatal("local rows carry no error")
		}
	})

	t.Run("compile", func(t *testing.T) {
		broken := huffman + "\nfunc broken("
		_, lerr := Local{}.SweepRecording(ctx, "Huffman", broken, data, cfgs, opts)
		_, ferr := coord.SweepRecording(ctx, "Huffman", broken, data, cfgs, opts)
		if lerr == nil || ferr == nil {
			t.Fatalf("local error %v, fleet error %v; want both to fail", lerr, ferr)
		}
		if lerr.Error() != ferr.Error() {
			t.Fatalf("fleet error %q, want the local error %q", ferr, lerr)
		}
	})
}
