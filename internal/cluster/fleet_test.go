// Fleet-dynamics acceptance: byte-identity must survive a registry-
// backed worker set that churns mid-sweep — workers dying (shards
// stolen back) and joining (shards picked up) — and the replicated
// trace store must keep each recording on N members with worker-to-
// worker transfer only.
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
			srvB, _ := newTestWorker(t, slowShards(10*time.Millisecond))
			srvC, _ := newTestWorker(t, nil) // created idle; joins mid-sweep
			registerMember(t, regSrv.URL, "worker-a", srvA.URL)
			registerMember(t, regSrv.URL, "worker-b", srvB.URL)

			coord := New(Options{
				Membership:         fleet.NewRegistryMembership(regSrv.URL),
				MembershipInterval: 5 * time.Millisecond,
				ShardConfigs:       2,
				MaxAttempts:        8,
				RetryBase:          5 * time.Millisecond,
				BreakerThreshold:   2,
				BreakerCooldown:    100 * time.Millisecond,
				ShardTimeout:       30 * time.Second,
			})

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

// TestFleetReReplication: with -replicas 2 over three workers and
// stealing disabled (so execution alone cannot spread copies), the
// replicator must place a second copy of every recording worker-to-
// worker, and losing a holder mid-sweep must re-converge each
// recording back to two replicas.
func TestFleetReReplication(t *testing.T) {
	regSrv, _ := newTestRegistry(t, 5*time.Second)
	ids := []string{"worker-a", "worker-b", "worker-c"}
	for _, id := range ids {
		srv, _ := newTestWorker(t, slowShards(10*time.Millisecond))
		registerMember(t, regSrv.URL, id, srv.URL)
	}

	names := []string{"Huffman", "BitOps", "LuFactor"}
	grid := Grid{Configs: gridConfigs(16), Opts: jrpm.DefaultOptions()}
	for _, n := range names {
		src, data := recordWorkload(t, n)
		grid.Traces = append(grid.Traces, GridTrace{Name: n, Source: src, Data: data})
	}
	var want [][]OutcomeRow
	for _, gt := range grid.Traces {
		want = append(want, localRows(t, gt.Source, gt.Data, grid.Configs))
	}

	coord := New(Options{
		Membership:         fleet.NewRegistryMembership(regSrv.URL),
		MembershipInterval: 5 * time.Millisecond,
		Replicas:           2,
		DisableStealing:    true,
		ShardConfigs:       2,
		MaxAttempts:        8,
		RetryBase:          5 * time.Millisecond,
		Sentinels:          -1,
		HedgeAfter:         -1,
	})

	var die sync.Once
	res, err := coord.SweepStream(context.Background(), grid, func(ti, ci int, _ OutcomeRow) {
		// Losing worker A mid-sweep drops every replica it held.
		die.Do(func() { go deregisterMember(t, regSrv.URL, "worker-a") })
	})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range grid.Traces {
		if !bytes.Equal(canonical(t, res.Outcomes[ti]), canonical(t, want[ti])) {
			t.Errorf("trace %d diverged from local sweep", ti)
		}
	}
	if res.Metrics.ReplicaPulls < 1 {
		t.Errorf("replica pulls = %d, want >= 1 (stealing disabled, second copies must move worker-to-worker)",
			res.Metrics.ReplicaPulls)
	}
	if res.Metrics.MemberLeaves != 1 {
		t.Errorf("member leaves = %d, want 1", res.Metrics.MemberLeaves)
	}
	for key, n := range res.Metrics.TraceReplicas {
		if n < 2 {
			t.Errorf("trace %s finished with %d replicas, want 2 (re-replication after holder loss)", key[:12], n)
		}
	}
}

// BenchmarkFleetSweep measures replicated sweeps and asserts the
// coordinator's push bandwidth is flat in the replica count: each
// recording leaves the coordinator at most once — every further copy
// moves worker-to-worker.
func BenchmarkFleetSweep(b *testing.B) {
	grid := Grid{Configs: benchConfigs(16), Opts: jrpm.DefaultOptions()}
	for _, n := range []string{"Huffman", "BitOps"} {
		src, data := recordWorkload(b, n)
		grid.Traces = append(grid.Traces, GridTrace{Name: n, Source: src, Data: data})
	}
	for _, replicas := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			addrs := make([]string, 3)
			workers := make([]*Worker, 3)
			for i := range addrs {
				srv, w := newTestWorker(b, nil)
				addrs[i], workers[i] = srv.URL, w
			}
			coord := New(Options{
				Workers:            addrs,
				Replicas:           replicas,
				MembershipInterval: 5 * time.Millisecond,
				ShardConfigs:       4,
				Sentinels:          -1,
				HedgeAfter:         -1,
			})
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
			// Across every iteration the coordinator ships each recording at
			// most once (the residency memo persists between sweeps).
			if pushes > int64(len(grid.Traces)) {
				b.Errorf("coordinator pushed %d times for %d traces at replicas=%d, want at most one push per trace",
					pushes, len(grid.Traces), replicas)
			}
			perKey := map[string]int64{}
			var peerFetches int64
			for _, w := range workers {
				snap := w.Snapshot()
				for _, tt := range snap.Traces {
					perKey[tt.Key] += tt.Pushes
				}
				peerFetches += snap.TracePeerFetches
			}
			for key, n := range perKey {
				if n > 1 {
					b.Errorf("trace %s received %d coordinator pushes fleet-wide, want at most 1 (replicas fetch peer-to-peer)",
						key[:12], n)
				}
			}
			b.ReportMetric(float64(peerFetches)/float64(b.N), "peer-fetches/op")
		})
	}
}
