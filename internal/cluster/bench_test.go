package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"jrpm"
	"jrpm/internal/core"
	"jrpm/internal/fleet"
	"jrpm/internal/hydra"
	"jrpm/internal/trace"
	"jrpm/internal/workloads"
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
			coord := New(Options{Membership: fleet.Static(addrs)})
			coord.sentinels = 0 // measure raw sharding, not the verification tax
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

// shardCostConfigs builds 64 distinct configurations of one store
// geometry: bank count, CPU count and end-of-iteration overhead vary,
// none of which the geometry includes, so they make one full shard.
func shardCostConfigs() []hydra.Config {
	var cfgs []hydra.Config
	for _, banks := range []int{1, 2, 4, 8} {
		for _, cpus := range []int{2, 4, 8, 16} {
			for _, eoi := range []int64{1, 5, 10, 20} {
				cfg := hydra.DefaultConfig()
				cfg.Tracer.Banks = banks
				cfg.CPUs = cpus
				cfg.Overheads.EndOfIter = eoi
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// shardCostSink keeps BenchmarkShardCost's replays from being optimized
// away.
var shardCostSink []trace.SweepOutcome

// BenchmarkShardCost prices the parts of a shard over the 26 kernels at
// scale 1. replay-64 and replay-1 replay a 64-config single-geometry
// shard and a 1-config shard on one replay worker, as a worker runs a
// shard; json-64 and json-1 marshal and unmarshal the ShardResponse
// carrying their rows, the worker's encode and the coordinator's
// decode. Every op covers all 26 kernels, so ns/op is the sum over
// them; the json runs also report the mean encoded bytes per row. The
// per-shard cost model in DESIGN.md "Where the fleet pays" is built on
// these numbers.
func BenchmarkShardCost(b *testing.B) {
	opts := jrpm.Normalize(jrpm.DefaultOptions())
	cfgs := shardCostConfigs()
	if len(core.Groups(cfgs)) != 1 {
		b.Fatal("the configs span more than one shard")
	}
	type recording struct {
		c    *jrpm.Compiled
		data []byte
		rows []OutcomeRow // the 64-config shard's rows
	}
	var recs []recording
	for _, w := range workloads.All() {
		c, err := jrpm.Compile(w.Source, opts)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := c.ProfileRecord(context.Background(), w.NewInput(1), opts, &buf); err != nil {
			b.Fatal(err)
		}
		rows := EncodeOutcomes(c.SweepTrace(context.Background(), buf.Bytes(), cfgs, opts, shardReplayWorkers))
		for _, row := range rows {
			if row.Err != "" {
				b.Fatalf("%s: %s", w.Meta.Name, row.Err)
			}
		}
		recs = append(recs, recording{c, buf.Bytes(), rows})
	}
	for _, n := range []int{64, 1} {
		b.Run(fmt.Sprintf("replay-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range recs {
					shardCostSink = r.c.SweepTrace(context.Background(), r.data, cfgs[:n], opts, shardReplayWorkers)
				}
			}
		})
	}
	for _, n := range []int{64, 1} {
		b.Run(fmt.Sprintf("json-%d", n), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				size = 0
				for _, r := range recs {
					body, err := json.Marshal(ShardResponse{Outcomes: r.rows[:n]})
					if err != nil {
						b.Fatal(err)
					}
					var out ShardResponse
					if err := json.Unmarshal(body, &out); err != nil {
						b.Fatal(err)
					}
					size += len(body)
				}
			}
			b.ReportMetric(float64(size)/float64(n*len(recs)), "B/row")
		})
	}
}
