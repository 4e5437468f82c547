// Fleet-dynamics acceptance: byte-identity must survive a registry-
// backed worker set that churns mid-sweep — workers dying (in-flight
// shards retried elsewhere) and joining (shards taken from the queue).
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jrpm"
	"jrpm/internal/corpus"
	"jrpm/internal/fleet"
	"jrpm/internal/workloads"
)

// newTestRegistry serves a fleet registry over HTTP, as jrpmd does.
func newTestRegistry(t testing.TB, ttl time.Duration) (*httptest.Server, *fleet.Registry) {
	t.Helper()
	reg := fleet.NewRegistry(fleet.RegistryOptions{TTL: ttl})
	mux := http.NewServeMux()
	reg.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, reg
}

func registerMember(t testing.TB, regURL, id, addr string) {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"addr":%q}`, id, addr)
	resp, err := http.Post(regURL+"/v1/fleet/register", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("register %s: %v", id, err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("register %s: HTTP %d", id, resp.StatusCode)
	}
}

func deregisterMember(t testing.TB, regURL, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, regURL+"/v1/fleet/members/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("deregister %s: %v", id, err)
		return
	}
	resp.Body.Close()
}

// TestFleetChurnEquivalence: for every workload, a sweep over a
// registry-backed fleet — with one worker dying mid-sweep (its process
// aborting shard requests and its registration dropped) and a fresh
// worker joining mid-sweep — merges into exactly the canonical bytes of
// a local sweep, and the streamed rows are those same bytes: every
// (trace, config) cell delivered exactly once, no cell lost to the
// churn.
func TestFleetChurnEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays every workload")
	}
	for _, w := range workloads.All() {
		t.Run(w.Meta.Name, func(t *testing.T) {
			src, data := recordWorkload(t, w.Meta.Name)
			cfgs := gridConfigs(8)
			want := localRows(t, src, data, cfgs)

			regSrv, _ := newTestRegistry(t, 5*time.Second)
			srvA, _ := newTestWorker(t, killAfter(1, nil))
			// Worker A holds the recording beforehand, so the one shard it
			// completes before dying is a real replay, not trace_missing.
			pushTrace(t, srvA.URL, data)
			srvB, _ := newTestWorker(t, slowShards(10*time.Millisecond))
			srvC, _ := newTestWorker(t, nil) // created idle; joins mid-sweep
			registerMember(t, regSrv.URL, "worker-a", srvA.URL)
			registerMember(t, regSrv.URL, "worker-b", srvB.URL)

			coord := New(Options{Membership: fleet.NewRegistryMembership(regSrv.URL)})
			coord.membershipInterval = 5 * time.Millisecond
			coord.maxAttempts = 8
			coord.retryBase = 5 * time.Millisecond
			coord.breakerThreshold = 2
			coord.breakerCooldown = 100 * time.Millisecond

			var mu sync.Mutex
			var churn sync.Once
			seen := map[[2]int]int{}
			streamed := map[[2]int]OutcomeRow{}
			res, err := coord.SweepStream(context.Background(), Grid{
				Traces:  []GridTrace{{Name: w.Meta.Name, Source: src, Data: data}},
				Configs: cfgs,
				Opts:    jrpm.DefaultOptions(),
			}, func(ti, ci int, row OutcomeRow) {
				mu.Lock()
				seen[[2]int{ti, ci}]++
				streamed[[2]int{ti, ci}] = row
				mu.Unlock()
				// First completed cell triggers the churn: worker A dies
				// (deregistered, and killAfter aborts its next shard), worker
				// C joins the live fleet.
				churn.Do(func() {
					go func() {
						deregisterMember(t, regSrv.URL, "worker-a")
						registerMember(t, regSrv.URL, "worker-c", srvC.URL)
					}()
				})
			})
			if err != nil {
				t.Fatal(err)
			}

			got := canonical(t, res.Outcomes[0])
			if !bytes.Equal(got, canonical(t, want)) {
				t.Fatalf("churned fleet sweep diverged from local sweep")
			}
			for ci := range cfgs {
				if n := seen[[2]int{0, ci}]; n != 1 {
					t.Errorf("config %d streamed %d times, want exactly once", ci, n)
				}
				if cb, mb := canonical(t, []OutcomeRow{streamed[[2]int{0, ci}]}), canonical(t, []OutcomeRow{res.Outcomes[0][ci]}); !bytes.Equal(cb, mb) {
					t.Errorf("config %d: streamed row differs from merged row", ci)
				}
			}
			if res.Metrics.MemberLeaves < 1 {
				t.Errorf("member leaves = %d, want >= 1 (worker A died mid-sweep)", res.Metrics.MemberLeaves)
			}
			if res.Metrics.MemberJoins < 1 {
				t.Errorf("member joins = %d, want >= 1 (worker C joined mid-sweep)", res.Metrics.MemberJoins)
			}
		})
	}
}

// TestStaticFleetAdmitsLateWorker: a static worker list is re-probed
// throughout a sweep, so a listed worker that is unreachable at startup
// is excluded, then admitted once it answers and given shards from the
// queue; the merged rows stay byte-identical to a local sweep.
func TestStaticFleetAdmitsLateWorker(t *testing.T) {
	src, data := recordWorkload(t, "Huffman")
	cfgs := gridConfigs(8) // six store geometries, so six shards
	want := canonical(t, localRows(t, src, data, cfgs))

	up := make(chan struct{})     // the late worker starts answering
	served := make(chan struct{}) // the late worker received a shard
	var upOnce, servedOnce sync.Once
	isShard := func(r *http.Request) bool {
		return r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards")
	}
	late, _ := newTestWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-up:
			default:
				panic(http.ErrAbortHandler) // not up yet: a torn connection
			}
			if isShard(r) {
				servedOnce.Do(func() { close(served) })
			}
			next.ServeHTTP(w, r)
		})
	})
	// The early worker brings the late one up at its first shard request
	// (so after preflight), then holds its shards until the late worker
	// has received one, so the grid cannot drain without it.
	early, _ := newTestWorker(t, func(next http.Handler) http.Handler {
		held := holdShardsUntil(served, 5*time.Second)(next)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isShard(r) {
				upOnce.Do(func() { close(up) })
			}
			held.ServeHTTP(w, r)
		})
	})

	coord := New(Options{Membership: fleet.Static{early.URL, late.URL}})
	coord.membershipInterval = 5 * time.Millisecond
	res, err := coord.Sweep(context.Background(), Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("sweep with one live worker reported Degraded")
	}
	if res.Metrics.MemberJoins != 1 {
		t.Errorf("member joins = %d, want 1 (the late worker)", res.Metrics.MemberJoins)
	}
	select {
	case <-served:
	default:
		t.Error("late worker was never sent a shard")
	}
	if got := canonical(t, res.Outcomes[0]); !bytes.Equal(got, want) {
		t.Error("sweep with a late static worker differs from local trace.Sweep")
	}
}

// BenchmarkFleetSweep measures the crossover on a corpus × config grid:
// 8 smoke-corpus recordings × 16 configurations over 4 store
// geometries, so 32 shards. "local" replays every recording in-process
// with Local; workers=2 and workers=4 run the same grid through
// in-process fleets over loopback HTTP. It reports cells/s and
// coordinator pushes per sweep, and asserts that across all iterations
// every worker receives each recording at most once.
func BenchmarkFleetSweep(b *testing.B) {
	_, progs, err := corpus.Compile(corpus.SmokeSpec())
	if err != nil {
		b.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	grid := Grid{Configs: benchConfigs(16), Opts: opts}
	for _, p := range progs[:8] {
		c, err := jrpm.Compile(p.Source, opts)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := c.ProfileRecord(context.Background(), p.Input(), opts, &buf); err != nil {
			b.Fatal(err)
		}
		grid.Traces = append(grid.Traces, GridTrace{Name: p.SHA256[:12], Source: p.Source, Data: buf.Bytes()})
	}
	cells := float64(len(grid.Traces) * len(grid.Configs))

	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, gt := range grid.Traces {
				if _, err := (Local{}).SweepRecording(context.Background(), gt.Name, gt.Source, gt.Data, grid.Configs, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
	})
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			addrs := make([]string, n)
			workers := make([]*Worker, n)
			for i := range addrs {
				srv, w := newTestWorker(b, nil)
				addrs[i], workers[i] = srv.URL, w
			}
			coord := New(Options{Membership: fleet.Static(addrs)})
			coord.sentinels = 0
			var pushes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := coord.Sweep(context.Background(), grid)
				if err != nil {
					b.Fatal(err)
				}
				pushes += res.Metrics.TracePushes
			}
			b.StopTimer()
			b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			b.ReportMetric(float64(pushes)/float64(b.N), "pushes/op")
			for i, w := range workers {
				for _, tt := range w.Snapshot().Traces {
					if tt.Pushes > 1 {
						b.Errorf("worker %d: trace %s pushed %d times across %d sweeps, want at most once",
							i, tt.Key[:12], tt.Pushes, b.N)
					}
				}
			}
		})
	}
}
