package experiments_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"jrpm/internal/cluster"
	"jrpm/internal/experiments"
	"jrpm/internal/fleet"
	"jrpm/internal/service"
)

// startWorker brings up one in-process jrpmd worker (shard + trace API).
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	pool := service.NewPool(service.Config{Workers: 2})
	t.Cleanup(pool.Stop)
	mux := http.NewServeMux()
	mux.Handle("/", service.NewServer(pool).Handler())
	cluster.NewWorker(pool).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestAblationsThroughCluster: the ablation experiments, run through a
// two-worker cluster coordinator, produce exactly the rows the local
// sweeper produces — the distributed path is an invisible substitution.
func TestAblationsThroughCluster(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	coord := cluster.New(cluster.Options{Membership: fleet.Static{w1.URL, w2.URL}})
	ctx := context.Background()

	banks := []int{1, 8}
	remote, _, err := experiments.AblateBanksOn(ctx, coord, 0.2, banks)
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := experiments.AblateBanksOn(ctx, cluster.Local{}, 0.2, banks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Errorf("bank ablation differs through the cluster:\nremote %+v\nlocal  %+v", remote, local)
	}

	depths := []int{8, 192}
	remoteH, _, err := experiments.AblateHistoryOn(ctx, coord, 0.2, depths)
	if err != nil {
		t.Fatal(err)
	}
	localH, _, err := experiments.AblateHistoryOn(ctx, cluster.Local{}, 0.2, depths)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remoteH, localH) {
		t.Errorf("history ablation differs through the cluster:\nremote %+v\nlocal  %+v", remoteH, localH)
	}
}
