package tls_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"jrpm"
	"jrpm/internal/hydra"
	"jrpm/internal/tls"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// recordKernel profiles one paper kernel at the given input scale and
// records its selected loops' per-iteration traces, as the speculate step
// of the pipeline does.
func recordKernel(tb testing.TB, w *workloads.Workload, scale float64) []*tls.Entry {
	tb.Helper()
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		tb.Fatal(err)
	}
	in := w.NewInput(scale)
	pr, err := c.Profile(context.Background(), in, opts)
	if err != nil {
		tb.Fatal(err)
	}
	rec := tls.NewRecorder(pr.Annotated, pr.Analysis.SelectedLoopIDs())
	vm := vmsim.New(pr.Annotated)
	vm.AnnotCost = pr.Opts.Cfg.Tracer.AnnotCost
	vm.ReadStatsCost = pr.Opts.Cfg.Tracer.ReadStatsCost
	if err := vm.BindInputs(in.Ints, in.Floats); err != nil {
		tb.Fatal(err)
	}
	vm.Listeners = append(vm.Listeners, rec)
	if err := vm.Run("main"); err != nil {
		tb.Fatal(err)
	}
	return rec.Entries
}

// diffConfigs are the machines both simulators run every input on: the
// default 4-CPU Hydra, a small one whose buffers overflow constantly, and
// a wide one.
func diffConfigs() []hydra.Config {
	small := hydra.DefaultConfig()
	small.CPUs = 2
	small.Buffers.LoadLines = 8
	small.Buffers.StoreLines = 4
	wide := hydra.DefaultConfig()
	wide.CPUs = 8
	wide.Overheads.Violation = 40
	return []hydra.Config{hydra.DefaultConfig(), small, wide}
}

// assertSameResults requires every Result field to be identical.
func assertSameResults(t *testing.T, what string, got, want map[int]*tls.Result) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	ids := make([]int, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if g := got[id]; g == nil || *g != *want[id] {
			t.Errorf("%s: loop %d: got %+v, reference %+v", what, id, g, want[id])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d loops, reference %d", what, len(got), len(want))
	}
}

// TestSimulateMatchesReference: the table-based simulator reproduces the
// map-based reference bit for bit, on the recorded traces of every paper
// kernel and on seeded random traces built to reach every branch of the
// timing model.
func TestSimulateMatchesReference(t *testing.T) {
	t.Run("kernels", func(t *testing.T) {
		for _, w := range workloads.All() {
			entries := recordKernel(t, w, 1)
			for ci, cfg := range diffConfigs() {
				want := referenceSimulate(entries, cfg)
				got := tls.Simulate(entries, cfg)
				assertSameResults(t, fmt.Sprintf("%s/config%d", w.Meta.Name, ci), got, want)
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		for _, g := range randomCases() {
			var sum tls.Result
			rng := rand.New(rand.NewSource(g.seed))
			for round := 0; round < 20; round++ {
				entries := g.gen.entries(rng)
				for ci, cfg := range diffConfigs() {
					want := referenceSimulate(entries, cfg)
					got := tls.Simulate(entries, cfg)
					assertSameResults(t, fmt.Sprintf("%s/round%d/config%d", g.name, round, ci), got, want)
					for _, r := range want {
						sum.Violations += r.Violations
						sum.CommStalls += r.CommStalls
						sum.OverflowStalls += r.OverflowStalls
					}
				}
			}
			if g.hazards&violations != 0 && sum.Violations == 0 ||
				g.hazards&commStalls != 0 && sum.CommStalls == 0 ||
				g.hazards&overflows != 0 && sum.OverflowStalls == 0 {
				t.Errorf("%s: traces missed a hazard they are built for: %+v", g.name, sum)
			}
		}
	})

	t.Run("sync-across-entries", func(t *testing.T) {
		// Each entry is two threads where the second reads early what the
		// first writes late: one violation of load PC 7 per entry until
		// PC 7 has caused syncThreshold, then the later entries stall.
		var entries []*tls.Entry
		for i := 0; i < 4; i++ {
			entries = append(entries, &tls.Entry{Loop: 0, SeqCycles: 2000, Iters: []tls.Iter{
				{Len: 1000, Acc: []tls.Access{{Rel: 900, Addr: 0x100, Kind: tls.Store, PC: 3}}},
				{Len: 1000, Acc: []tls.Access{{Rel: 10, Addr: 0x102, Kind: tls.Load, PC: 7}}},
			}})
		}
		cfg := hydra.DefaultConfig()
		want := referenceSimulate(entries, cfg)
		if v := want[0].Violations; v != tls.SyncThreshold {
			t.Fatalf("reference violations = %d, want %d (learning must span entries)", v, tls.SyncThreshold)
		}
		assertSameResults(t, "sync-across-entries", tls.Simulate(entries, cfg), want)
	})
}

// randomCase is one family of random traces and the hazards its traces
// must reach.
type randomCase struct {
	name    string
	seed    int64
	hazards hazard
	gen     traceGen
}

type hazard uint8

const (
	violations hazard = 1 << iota
	commStalls
	overflows
)

// traceGen draws random entries. Addresses come from a small pool of
// words spread over a few lines, with random byte offsets inside each
// word, so word and line addresses collide constantly.
type traceGen struct {
	entryCount int     // entries per Simulate call
	loops      int     // distinct loop ids
	iters      int     // max iterations per entry
	accesses   int     // max accesses per iteration
	words      int     // word pool size
	wordStride uint64  // bytes between pooled words
	locals     int     // synchronized-local slot pool size (0: none)
	pcs        []int32 // PC pool
	emptyProb  float64 // probability of an iteration with no accesses
	sorted     bool    // accesses in nondecreasing Rel order, as recorded
}

func (g traceGen) entries(rng *rand.Rand) []*tls.Entry {
	out := make([]*tls.Entry, 1+rng.Intn(g.entryCount))
	for i := range out {
		e := &tls.Entry{Loop: rng.Intn(g.loops)}
		n := 1 + rng.Intn(g.iters)
		for k := 0; k < n; k++ {
			it := tls.Iter{Len: 20 + rng.Int63n(500)}
			e.SeqCycles += it.Len
			if rng.Float64() < g.emptyProb {
				e.Iters = append(e.Iters, it)
				continue
			}
			m := 1 + rng.Intn(g.accesses)
			for a := 0; a < m; a++ {
				acc := tls.Access{Rel: rng.Int63n(it.Len), PC: g.pcs[rng.Intn(len(g.pcs))]}
				switch r := rng.Intn(10); {
				case g.locals > 0 && r >= 8:
					acc.Kind = tls.LocalLoad
					if r == 9 {
						acc.Kind = tls.LocalStore
					}
					acc.Addr = 1<<40 | uint64(rng.Intn(g.locals))
				case r < 5:
					acc.Kind = tls.Load
					acc.Addr = 0x1000 + uint64(rng.Intn(g.words))*g.wordStride + uint64(rng.Intn(4))
				default:
					acc.Kind = tls.Store
					acc.Addr = 0x1000 + uint64(rng.Intn(g.words))*g.wordStride + uint64(rng.Intn(4))
				}
				it.Acc = append(it.Acc, acc)
			}
			if g.sorted {
				sort.SliceStable(it.Acc, func(x, y int) bool { return it.Acc[x].Rel < it.Acc[y].Rel })
			}
			e.Iters = append(e.Iters, it)
		}
		out[i] = e
	}
	return out
}

func pcRange(base int32, n int) []int32 {
	pcs := make([]int32, n)
	for i := range pcs {
		pcs[i] = base + int32(i)
	}
	return pcs
}

// randomCases forces, family by family, every behaviour the simulator
// models: RAW restarts and violation learning (few PCs, few words, many
// entries), store->load forwarding and communication stalls, synchronized
// locals, load- and store-line buffer overflows (many distinct lines
// against the small configuration), word and line collisions, empty
// iterations, and PCs that grow the violation counters far and past
// their dense range, or are negative.
func randomCases() []randomCase {
	return []randomCase{
		{"raw-restarts", 1, violations, traceGen{entryCount: 6, loops: 2, iters: 12, accesses: 6, words: 3, wordStride: 4, pcs: pcRange(0, 3), sorted: true}},
		{"forwarding", 2, violations | commStalls, traceGen{entryCount: 3, loops: 1, iters: 20, accesses: 12, words: 2, wordStride: 4, pcs: pcRange(10, 8)}},
		{"locals", 3, commStalls, traceGen{entryCount: 3, loops: 2, iters: 20, accesses: 8, words: 4, wordStride: 4, locals: 3, pcs: pcRange(0, 6), sorted: true}},
		{"overflow", 4, overflows, traceGen{entryCount: 2, loops: 1, iters: 16, accesses: 80, words: 200, wordStride: hydra.LineSize, pcs: pcRange(0, 40), sorted: true}},
		{"line-collisions", 5, violations | commStalls | overflows, traceGen{entryCount: 3, loops: 3, iters: 24, accesses: 30, words: 64, wordStride: 4, pcs: pcRange(0, 16), sorted: true}},
		{"empty-iterations", 6, violations, traceGen{entryCount: 4, loops: 2, iters: 30, accesses: 5, words: 4, wordStride: 4, pcs: pcRange(0, 4), emptyProb: 0.5}},
		{"large-pcs", 7, violations | commStalls, traceGen{entryCount: 5, loops: 2, iters: 16, accesses: 8, words: 4, wordStride: 4, locals: 2,
			pcs: []int32{0, 4095, 70_000, 300_000, 1 << 20, 1<<20 + 1, math.MaxInt32, -1, math.MinInt32}, sorted: true}},
		{"big-tables", 8, violations | commStalls | overflows, traceGen{entryCount: 2, loops: 1, iters: 200, accesses: 60, words: 5000, wordStride: 4, locals: 300, pcs: pcRange(0, 500)}},
	}
}
