// Acceptance suite for the distributed sweep cluster. The load-bearing
// property is byte-identity: for every workload, a sweep sharded across
// in-process workers — including under injected mid-sweep worker death —
// must merge into exactly the canonical bytes a local trace.Sweep
// produces, with zero lost or duplicated configurations.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jrpm"
	"jrpm/internal/core"
	"jrpm/internal/fleet"
	"jrpm/internal/hydra"
	"jrpm/internal/service"
	"jrpm/internal/workloads"
)

const testScale = 0.2

// newTestWorker starts an in-process jrpmd-in-worker-mode: the cluster
// endpoints plus the service API (whose /v1/version the coordinator
// preflights), optionally wrapped in a fault-injection middleware.
func newTestWorker(t testing.TB, mw func(http.Handler) http.Handler) (*httptest.Server, *Worker) {
	t.Helper()
	pool := service.NewPool(service.Config{Workers: 2})
	t.Cleanup(pool.Stop)
	w := NewWorker(pool)
	mux := http.NewServeMux()
	w.Register(mux)
	service.NewServer(pool).Register(mux)
	var h http.Handler = mux
	if mw != nil {
		h = mw(mux)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, w
}

func recordWorkload(t testing.TB, name string) (src string, data []byte) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.ProfileRecord(context.Background(), w.NewInput(testScale), opts, &buf); err != nil {
		t.Fatal(err)
	}
	return w.Source, buf.Bytes()
}

// gridConfigs builds n distinct machine configurations (bank count,
// store-history depth and load-timestamp capacity varied together), so
// a grid spans up to six store geometries and therefore six shards.
func gridConfigs(n int) []hydra.Config {
	banks := []int{1, 2, 4, 8}
	hists := []int{8, 48, 192}
	loads := []int{256, 512}
	cfgs := make([]hydra.Config, n)
	for i := range cfgs {
		cfgs[i] = hydra.DefaultConfig()
		cfgs[i].Tracer.Banks = banks[i%len(banks)]
		cfgs[i].Tracer.HeapStoreLines = hists[i%len(hists)]
		cfgs[i].Tracer.LoadLineTS = loads[i%len(loads)]
	}
	return cfgs
}

func localRows(t testing.TB, src string, data []byte, cfgs []hydra.Config) []OutcomeRow {
	t.Helper()
	rows, err := Local{}.SweepRecording(context.Background(), "local", src, data, cfgs, jrpm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func canonical(t testing.TB, rows []OutcomeRow) []byte {
	t.Helper()
	b, err := Canonical(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// killAfter aborts every shard request past the first n, simulating a
// worker process dying mid-sweep (clients see a torn connection). A
// non-nil aborted channel is closed at the first abort.
func killAfter(n int32, aborted chan struct{}) func(http.Handler) http.Handler {
	var count int32
	var once sync.Once
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards") {
				if atomic.AddInt32(&count, 1) > n {
					if aborted != nil {
						once.Do(func() { close(aborted) })
					}
					panic(http.ErrAbortHandler)
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// holdShardsUntil delays every shard request until release is closed or
// timeout passes, whichever comes first.
func holdShardsUntil(release <-chan struct{}, timeout time.Duration) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards") {
				select {
				case <-release:
				case <-time.After(timeout):
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestClusterEquivalence: for every workload, a two-worker distributed
// sweep merges into byte-identical canonical rows — selections,
// estimates, and per-loop tracer tables — both on a healthy fleet and
// with one worker killed mid-sweep.
func TestClusterEquivalence(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Meta.Name, func(t *testing.T) {
			t.Parallel()
			src, data := recordWorkload(t, w.Meta.Name)
			cfgs := gridConfigs(9) // uneven shard split on purpose
			want := canonical(t, localRows(t, src, data, cfgs))
			grid := Grid{
				Traces:  []GridTrace{{Name: w.Meta.Name, Source: src, Data: data}},
				Configs: cfgs,
				Opts:    jrpm.DefaultOptions(),
			}

			t.Run("healthy", func(t *testing.T) {
				s1, _ := newTestWorker(t, nil)
				s2, _ := newTestWorker(t, nil)
				coord := New(Options{Membership: fleet.Static{s1.URL, s2.URL}})
				res, err := coord.Sweep(context.Background(), grid)
				if err != nil {
					t.Fatal(err)
				}
				if res.Degraded {
					t.Error("healthy fleet reported Degraded")
				}
				if got := canonical(t, res.Outcomes[0]); !bytes.Equal(got, want) {
					t.Error("distributed sweep differs from local trace.Sweep")
				}
				if res.Metrics.SentinelChecks < 1 {
					t.Errorf("sentinel checks = %d, want >= 1", res.Metrics.SentinelChecks)
				}
				if res.Metrics.Dispatched < 5 {
					t.Errorf("dispatched = %d shards, want >= 5", res.Metrics.Dispatched)
				}
			})

			t.Run("worker-killed", func(t *testing.T) {
				// The healthy worker holds its shards until the dying one
				// has aborted, so it cannot drain the grid before the dying
				// worker receives its second (fatal) shard. The dying worker
				// holds the recording beforehand, so its first shard request
				// is a real replay whose rows are merged, not a trace_missing
				// answer.
				aborted := make(chan struct{})
				dying, _ := newTestWorker(t, killAfter(1, aborted))
				pushTrace(t, dying.URL, data)
				healthy, _ := newTestWorker(t, holdShardsUntil(aborted, 10*time.Second))
				coord := New(Options{Membership: fleet.Static{dying.URL, healthy.URL}})
				coord.retryBase = time.Millisecond
				coord.breakerThreshold = 2
				coord.breakerCooldown = 50 * time.Millisecond
				res, err := coord.Sweep(context.Background(), grid)
				if err != nil {
					t.Fatal(err)
				}
				if got := canonical(t, res.Outcomes[0]); !bytes.Equal(got, want) {
					t.Error("sweep with mid-sweep worker death differs from local trace.Sweep")
				}
				if res.Metrics.Failures < 1 {
					t.Errorf("failures = %d, want >= 1 (worker did die, right?)", res.Metrics.Failures)
				}
			})
		})
	}
}

// tamperShards rewrites every successful shard response on its way out,
// corrupting one counter — the model of a worker computing wrong answers
// while speaking the protocol perfectly.
func tamperShards() func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !(r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards")) {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK {
				var sr ShardResponse
				if json.Unmarshal(body, &sr) == nil && len(sr.Outcomes) > 0 {
					sr.Outcomes[0].TracedCycles++
					body, _ = json.Marshal(sr)
				}
			}
			for k, vs := range rec.Header() {
				if k == "Content-Length" {
					continue
				}
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(body) //nolint:errcheck
		})
	}
}

// TestClusterSentinelMismatch: a worker returning subtly wrong numbers
// is caught by the sentinel re-execution, and the sweep fails with
// ErrDeterminism instead of merging corrupt rows.
func TestClusterSentinelMismatch(t *testing.T) {
	src, data := recordWorkload(t, "Huffman")
	good, _ := newTestWorker(t, nil)
	evil, _ := newTestWorker(t, tamperShards())
	coord := New(Options{Membership: fleet.Static{good.URL, evil.URL}})
	_, err := coord.Sweep(context.Background(), Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: gridConfigs(6),
		Opts:    jrpm.DefaultOptions(),
	})
	if !errors.Is(err, ErrDeterminism) {
		t.Fatalf("err = %v, want ErrDeterminism", err)
	}
}

// TestClusterVersionRefusal: a reachable worker speaking a different
// trace-format version poisons the whole fleet — the coordinator refuses
// loudly rather than mixing formats.
func TestClusterVersionRefusal(t *testing.T) {
	healthy, _ := newTestWorker(t, nil)
	alien := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(VersionInfo{Module: "jrpm-future", TraceFormat: 999}) //nolint:errcheck
	}))
	defer alien.Close()

	src, data := recordWorkload(t, "Huffman")
	coord := New(Options{Membership: fleet.Static{healthy.URL, alien.URL}})
	_, err := coord.Sweep(context.Background(), Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: gridConfigs(2),
		Opts:    jrpm.DefaultOptions(),
	})
	if err == nil || !strings.Contains(err.Error(), "trace format") {
		t.Fatalf("err = %v, want trace-format refusal", err)
	}
}

// TestClusterLocalDegradation: with every worker unreachable the grid
// runs locally, flagged Degraded, still byte-identical; with the
// fallback disabled it fails with ErrNoWorkers.
func TestClusterLocalDegradation(t *testing.T) {
	src, data := recordWorkload(t, "Huffman")
	cfgs := gridConfigs(4)
	want := canonical(t, localRows(t, src, data, cfgs))
	grid := Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	}
	// A listener that is closed immediately: connection refused, fast.
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := dead.URL
	dead.Close()

	coord := New(Options{Membership: fleet.Static{addr}})
	res, err := coord.Sweep(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("unreachable fleet did not set Degraded")
	}
	if got := canonical(t, res.Outcomes[0]); !bytes.Equal(got, want) {
		t.Error("degraded local sweep differs from trace.Sweep")
	}

	strict := New(Options{Membership: fleet.Static{addr}, DisableLocalFallback: true})
	if _, err := strict.Sweep(context.Background(), grid); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// slowShards delays every shard execution on a worker, making it a
// straggler without making it wrong.
func slowShards(d time.Duration) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards") {
				// Drain the body before sleeping: the server only notices a
				// client disconnect (canceling r.Context) once the request
				// body is consumed.
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				select {
				case <-time.After(d):
				case <-r.Context().Done():
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// failShards rejects every shard execution with a 500 and offers each
// rejection to failed without blocking.
func failShards(failed chan<- struct{}) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards") {
				http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
				select {
				case failed <- struct{}{}:
				default:
				}
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// holdShards makes a worker's first shard request wait until n values
// have arrived on failed, or 10 s have passed.
func holdShards(failed <-chan struct{}, n int) func(http.Handler) http.Handler {
	var once sync.Once
	release := make(chan struct{})
	go func() {
		defer close(release)
		for range n {
			select {
			case <-failed:
			case <-time.After(10 * time.Second):
				return
			}
		}
	}()
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards") {
				once.Do(func() { <-release })
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestClusterBreaker: a worker failing every shard trips its circuit
// breaker; the sweep completes on the healthy worker, byte-identical.
// The healthy worker holds its first shard until the broken one has
// failed twice, so it cannot drain the queue first and leave the broken
// worker a single failure, below the threshold.
func TestClusterBreaker(t *testing.T) {
	src, data := recordWorkload(t, "Huffman")
	failed := make(chan struct{}, 2) // the two failures holdShards waits for
	broken, _ := newTestWorker(t, failShards(failed))
	healthy, _ := newTestWorker(t, holdShards(failed, 2))
	coord := New(Options{Membership: fleet.Static{broken.URL, healthy.URL}})
	coord.sentinels = 0
	coord.retryBase = time.Millisecond
	coord.breakerThreshold = 2
	coord.breakerCooldown = 100 * time.Millisecond
	cfgs := gridConfigs(8)
	res, err := coord.Sweep(context.Background(), Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.BreakerOpens < 1 {
		t.Errorf("breaker opens = %d, want >= 1", res.Metrics.BreakerOpens)
	}
	if got := canonical(t, res.Outcomes[0]); !bytes.Equal(got, canonical(t, localRows(t, src, data, cfgs))) {
		t.Error("breaker-path sweep differs from local")
	}
}

// TestClusterMultiTraceTransfers: two distinct recordings swept in one
// grid; every recording's bytes reach a given worker at most once, even
// across repeated sweeps through the same coordinator.
func TestClusterMultiTraceTransfers(t *testing.T) {
	srcA, dataA := recordWorkload(t, "Huffman")
	srcB, dataB := recordWorkload(t, "LuFactor")
	s1, w1 := newTestWorker(t, nil)
	s2, w2 := newTestWorker(t, nil)
	coord := New(Options{Membership: fleet.Static{s1.URL, s2.URL}})
	coord.sentinels = 0
	cfgs := gridConfigs(6)
	grid := Grid{
		Traces: []GridTrace{
			{Name: "Huffman", Source: srcA, Data: dataA},
			{Name: "LuFactor", Source: srcB, Data: dataB},
		},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	}
	for round := 0; round < 2; round++ {
		res, err := coord.Sweep(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tr := range grid.Traces {
			want := canonical(t, localRows(t, tr.Source, tr.Data, cfgs))
			if got := canonical(t, res.Outcomes[ti]); !bytes.Equal(got, want) {
				t.Errorf("round %d trace %d: distributed rows differ from local", round, ti)
			}
		}
	}
	for i, w := range []*Worker{w1, w2} {
		for _, tr := range w.Snapshot().Traces {
			if tr.Pushes > 1 {
				t.Errorf("worker %d: trace %s pushed %d times, want <= 1", i, tr.Key[:12], tr.Pushes)
			}
		}
	}
}

// TestClusterShardsFollowGeometry: shards are cut along store
// geometries, so a healthy sweep dispatches Σ⌈configs per geometry / 64⌉
// shards per trace plus the sentinels, and the rows of shards whose
// configs interleave in the grid map back to grid order exactly as a
// local sweep produces them.
func TestClusterShardsFollowGeometry(t *testing.T) {
	srcA, dataA := recordWorkload(t, "Huffman")
	srcB, dataB := recordWorkload(t, "BitOps")
	// 70 configs of the default geometry (the bank count varies, which
	// the geometry ignores), with a deeper store history at configs 3,
	// 30 and 60 and a smaller load-timestamp table at config 10.
	cfgs := make([]hydra.Config, 74)
	for i := range cfgs {
		cfgs[i] = hydra.DefaultConfig()
		cfgs[i].Tracer.Banks = []int{1, 2, 4, 8}[i%4]
		switch i {
		case 3, 30, 60:
			cfgs[i].Tracer.HeapStoreLines = 48
		case 10:
			cfgs[i].Tracer.LoadLineTS = 256
		}
	}
	grid := Grid{
		Traces: []GridTrace{
			{Name: "Huffman", Source: srcA, Data: dataA},
			{Name: "BitOps", Source: srcB, Data: dataB},
		},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	}
	perGeometry := map[core.Geometry]int{}
	for _, cfg := range cfgs {
		perGeometry[core.GeometryOf(cfg)]++
	}
	shards := 0
	for _, n := range perGeometry {
		shards += (n + core.GroupSize - 1) / core.GroupSize
	}
	if shards != 4 {
		t.Fatalf("grid has %d shards per trace, want 4 (2 + 1 + 1)", shards)
	}

	s1, _ := newTestWorker(t, nil)
	s2, _ := newTestWorker(t, nil)
	res, err := New(Options{Membership: fleet.Static{s1.URL, s2.URL}}).Sweep(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	const sentinels = 1
	if want := int64(shards*len(grid.Traces) + sentinels); res.Metrics.Dispatched != want {
		t.Errorf("dispatched = %d, want %d (%d shards x %d traces + %d sentinel)",
			res.Metrics.Dispatched, want, shards, len(grid.Traces), sentinels)
	}
	if res.Metrics.SentinelChecks != sentinels {
		t.Errorf("sentinel checks = %d, want %d", res.Metrics.SentinelChecks, sentinels)
	}
	for ti, gt := range grid.Traces {
		if !bytes.Equal(canonical(t, res.Outcomes[ti]), canonical(t, localRows(t, gt.Source, gt.Data, cfgs))) {
			t.Errorf("trace %s: distributed rows differ from local", gt.Name)
		}
	}
}

// TestWorkerEndpoints exercises the worker HTTP surface directly:
// content-address verification, garbage rejection, a shard served from
// a pushed recording, and trace-missing shard rejection.
func TestWorkerEndpoints(t *testing.T) {
	srv, _ := newTestWorker(t, nil)
	src, data := recordWorkload(t, "Huffman")
	key := service.TraceKeyOf(data)
	client := srv.Client()

	put := func(path string, body []byte) *http.Response {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+path, bytes.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := put("/v1/traces/"+key, []byte("garbage")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched content address: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := put("/v1/traces/"+service.TraceKeyOf([]byte("garbage")), []byte("garbage")); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("non-trace bytes: HTTP %d, want 422", resp.StatusCode)
	}
	if resp := put("/v1/traces/"+key, data); resp.StatusCode != http.StatusNoContent {
		t.Errorf("valid push: HTTP %d, want 204", resp.StatusCode)
	}
	shard := func(key string) (int, string) {
		body, _ := json.Marshal(ShardRequest{TraceKey: key, Source: src, Configs: gridConfigs(1)})
		resp, err := client.Post(srv.URL+"/v1/shards", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae struct {
			Code string `json:"code"`
		}
		json.NewDecoder(resp.Body).Decode(&ae) //nolint:errcheck // a 200 body has no code
		return resp.StatusCode, ae.Code
	}
	if status, code := shard(key); status != http.StatusOK || code == "trace_missing" {
		t.Errorf("shard after push: HTTP %d code %q, want 200", status, code)
	}

	// A shard against a key the worker does not hold must come back as
	// the typed trace_missing rejection the dispatcher pushes on.
	if status, code := shard(strings.Repeat("0", 64)); status != http.StatusNotFound || code != "trace_missing" {
		t.Errorf("missing trace shard: HTTP %d code %q, want 404 trace_missing", status, code)
	}
}

// TestWorkerShardsCountCompiles: a shard compiles its source through
// the pool's artifact cache and counts there, so two shards of one
// source make one miss (a compile) and then one hit.
func TestWorkerShardsCountCompiles(t *testing.T) {
	srv, w := newTestWorker(t, nil)
	src, data := recordWorkload(t, "Huffman")
	pushTrace(t, srv.URL, data)
	m := w.pool.Metrics()
	for i, want := range [][2]int64{{0, 1}, {1, 1}} {
		body, _ := json.Marshal(ShardRequest{TraceKey: service.TraceKeyOf(data), Source: src, Configs: gridConfigs(1)})
		resp, err := http.Post(srv.URL+"/v1/shards", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: HTTP %d, want 200", i, resp.StatusCode)
		}
		if hits, misses := m.CacheHits.Load(), m.CacheMisses.Load(); hits != want[0] || misses != want[1] {
			t.Errorf("after shard %d: artifact cache hits=%d misses=%d, want %d/%d", i, hits, misses, want[0], want[1])
		}
	}
}

// TestLocalSweepCompilesOnce: Local compiles through the process's
// artifact cache, so a repeated sweep of one recording allocates less
// than one compile of its program alone and returns the same canonical
// bytes, while a source that does not compile fails every call.
func TestLocalSweepCompilesOnce(t *testing.T) {
	src, data := recordWorkload(t, "Huffman")
	cfgs := gridConfigs(2)
	opts := jrpm.DefaultOptions()
	ctx := context.Background()
	sweep := func() ([]OutcomeRow, error) {
		return Local{Workers: 1}.SweepRecording(ctx, "Huffman", src, data, cfgs, opts)
	}
	first, err := sweep()
	if err != nil {
		t.Fatal(err)
	}

	// On x86-64 a warm sweep of Huffman at testScale under two configs
	// makes about 115 allocations, and a warm compile of Huffman alone
	// about 255; a sweep that compiles makes both. Garbage collection is
	// off while it measures, so the front end's free lists stay warm.
	const bound = 180
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	compileAllocs := testing.AllocsPerRun(5, func() {
		if _, err := jrpm.Compile(src, opts); err != nil {
			t.Fatal(err)
		}
	})
	var again []OutcomeRow
	sweepAllocs := testing.AllocsPerRun(5, func() {
		if again, err = sweep(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Local sweep: %.0f allocs; jrpm.Compile alone: %.0f", sweepAllocs, compileAllocs)
	if compileAllocs <= bound {
		t.Errorf("jrpm.Compile of Huffman makes %.0f allocations, within the %d bound: the bound no longer tells a compile apart", compileAllocs, bound)
	}
	if sweepAllocs > bound {
		t.Errorf("warm Local sweep makes %.0f allocations, want at most %d: it compiles again", sweepAllocs, bound)
	}
	if !bytes.Equal(canonical(t, again), canonical(t, first)) {
		t.Error("a warm Local sweep's canonical rows differ from the first sweep's")
	}

	broken := src + "\nfunc broken("
	_, cerr := jrpm.Compile(broken, opts)
	if cerr == nil {
		t.Fatal("broken source compiled")
	}
	want := compileError("Huffman", cerr).Error()
	for i := range 3 {
		_, err := Local{}.SweepRecording(ctx, "Huffman", broken, data, cfgs, opts)
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: error %v, want %q", i, err, want)
		}
	}
}

// TestShardGeometryBound: POST /v1/shards applies core.CheckGrid before
// anything else, so a direct request with many distinct geometries, each
// within the per-table bound, is refused with 400 instead of allocating
// their store tables (tens of GB). The trace key is one the worker does
// not hold: without the bound the answer would be a 404.
func TestShardGeometryBound(t *testing.T) {
	srv, _ := newTestWorker(t, nil)
	cfgs := make([]hydra.Config, 1000)
	for i := range cfgs {
		cfgs[i] = hydra.DefaultConfig()
		cfgs[i].Tracer.LoadLineTS = core.MaxTableLines
		cfgs[i].Tracer.StoreLineTS = core.MaxTableLines
		cfgs[i].Buffers.LoadLines = i + 1
	}
	if core.CheckGrid(cfgs[:1]) != nil {
		t.Fatal("one geometry of the grid is already over the bound")
	}
	body, err := json.Marshal(ShardRequest{TraceKey: strings.Repeat("0", 64), Source: "func main() {}", Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/shards", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1,000-geometry shard: HTTP %d, want 400", resp.StatusCode)
	}
}

// pushTrace stores a recording on a worker, as the coordinator does on
// trace_missing.
func pushTrace(t testing.TB, url string, data []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut, url+"/v1/traces/"+service.TraceKeyOf(data), bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push: HTTP %d, want 204", resp.StatusCode)
	}
}

// routeLog records the method and route of every shard and trace
// request reaching a worker, in arrival order.
type routeLog struct {
	mu     sync.Mutex
	routes []string
}

func (l *routeLog) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.URL.Path
		if strings.HasPrefix(route, "/v1/traces/") {
			route = "/v1/traces/{hash}"
		}
		if route == "/v1/shards" || route == "/v1/traces/{hash}" {
			l.mu.Lock()
			l.routes = append(l.routes, r.Method+" "+route)
			l.mu.Unlock()
		}
		next.ServeHTTP(w, r)
	})
}

func (l *routeLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	routes := l.routes
	l.routes = nil
	return routes
}

// TestWorkerResidencyProtocol: the trace_missing answer to a shard is
// the only residency check. A fresh worker sees shard, push, shard for
// the first shard of a recording and one request for each later shard;
// a worker that already holds the recording sees exactly one request
// per shard and no push.
func TestWorkerResidencyProtocol(t *testing.T) {
	src, data := recordWorkload(t, "Huffman")
	grid := Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: gridConfigs(3), // three store geometries, three shards
		Opts:    jrpm.DefaultOptions(),
	}
	const shard, push = "POST /v1/shards", "PUT /v1/traces/{hash}"
	sweep := func(addr string) {
		t.Helper()
		res, err := New(Options{Membership: fleet.Static{addr}, DisableLocalFallback: true}).Sweep(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonical(t, res.Outcomes[0]), canonical(t, localRows(t, src, data, grid.Configs))) {
			t.Error("sweep differs from local")
		}
	}

	var fresh routeLog
	srv, _ := newTestWorker(t, fresh.middleware)
	sweep(srv.URL)
	if got, want := fresh.take(), []string{shard, push, shard, shard, shard}; !slices.Equal(got, want) {
		t.Errorf("fresh worker saw %q, want %q", got, want)
	}

	var holder routeLog
	srv, _ = newTestWorker(t, holder.middleware)
	pushTrace(t, srv.URL, data)
	holder.take()
	sweep(srv.URL)
	if got, want := holder.take(), []string{shard, shard, shard}; !slices.Equal(got, want) {
		t.Errorf("worker holding the recording saw %q, want %q", got, want)
	}
}
