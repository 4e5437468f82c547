package cluster

import (
	"context"
	"testing"

	"jrpm"
	"jrpm/internal/hydra"
)

// benchConfigs builds n distinct configurations spanning banks, history
// depth, and load-timestamp capacity.
func benchConfigs(n int) []hydra.Config {
	banks := []int{1, 2, 4, 8}
	hists := []int{8, 48, 192, 4096}
	loads := []int{256, 512}
	cfgs := make([]hydra.Config, 0, n)
	for len(cfgs) < n {
		i := len(cfgs)
		cfg := hydra.DefaultConfig()
		cfg.Tracer.Banks = banks[i%len(banks)]
		cfg.Tracer.HeapStoreLines = hists[(i/len(banks))%len(hists)]
		cfg.Tracer.LoadLineTS = loads[(i/(len(banks)*len(hists)))%len(loads)]
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// BenchmarkClusterSweep measures one 32-configuration sweep through
// fleets of 1, 2, and 4 in-process workers. On multi-core hosts the
// per-op time should fall near-linearly with fleet size; in every case
// the content-addressed shipping invariant — each worker receives the
// recording at most once, across all iterations — is asserted at the end.
func BenchmarkClusterSweep(b *testing.B) {
	src, data := recordWorkload(b, "Huffman")
	cfgs := benchConfigs(32)
	grid := Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[n], func(b *testing.B) {
			addrs := make([]string, n)
			workers := make([]*Worker, n)
			for i := range addrs {
				srv, w := newTestWorker(b, nil)
				addrs[i], workers[i] = srv.URL, w
			}
			coord := New(Options{
				Workers:   addrs,
				Sentinels: -1, // measure raw sharding, not the verification tax
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := coord.Sweep(context.Background(), grid)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Outcomes[0]) != len(cfgs) {
					b.Fatalf("merged %d rows, want %d", len(res.Outcomes[0]), len(cfgs))
				}
			}
			b.StopTimer()
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
