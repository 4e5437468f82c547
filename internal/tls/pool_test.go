package tls_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/tls"
	"jrpm/internal/vmsim"
)

// learningEntries are rounds entries of two threads each, where the
// second reads early what the first stores late, once through a load at
// a dense PC and once through a load at a PC past the dense counters.
func learningEntries(rounds int) []*tls.Entry {
	const dense, far = 7, 1<<20 + 7
	var out []*tls.Entry
	for i := 0; i < rounds; i++ {
		for _, pc := range []int32{dense, far} {
			out = append(out, &tls.Entry{Loop: 0, SeqCycles: 2000, Iters: []tls.Iter{
				{Len: 1000, Acc: []tls.Access{{Rel: 900, Addr: 0x100, Kind: tls.Store, PC: 3}}},
				{Len: 1000, Acc: []tls.Access{{Rel: 10, Addr: 0x100, Kind: tls.Load, PC: pc}}},
			}})
		}
	}
	return out
}

// TestPooledSimulateStartsFresh: a sim handed from one Simulate call to
// the next must not carry anything over. Simulating B after A equals
// simulating B on fresh scratch, when A taught the violation counters
// both a dense and a far PC, ran on more CPUs, or grew the tables.
func TestPooledSimulateStartsFresh(t *testing.T) {
	learn := learningEntries(3)
	cfg := hydra.DefaultConfig()
	want := tls.Simulate(learn, cfg)
	if v := want[0].Violations; v != 2*tls.SyncThreshold {
		t.Fatalf("fresh violations = %d, want %d (learning on both PCs)", v, 2*tls.SyncThreshold)
	}
	assertSameResults(t, "learning after learning", tls.SimulateAfter(learn, cfg, learn, cfg), want)

	wide := hydra.DefaultConfig()
	wide.CPUs = 8
	rng := rand.New(rand.NewSource(1))
	for _, g := range randomCases() {
		for round := 0; round < 5; round++ {
			a, b := g.gen.entries(rng), g.gen.entries(rng)
			for ci, cfgB := range diffConfigs() {
				what := fmt.Sprintf("%s/round%d/config%d", g.name, round, ci)
				want := referenceSimulate(b, cfgB)
				assertSameResults(t, what, tls.SimulateAfter(a, wide, b, cfgB), want)
				assertSameResults(t, what+" after learning", tls.SimulateAfter(learn, cfg, b, cfgB), want)
			}
		}
	}
}

// TestReleasedRecorderRecordsAfresh: a released recorder, reused, records
// exactly what a fresh one records, after a job that selected another
// loop with a larger synchronized-local table, filled more chunks than
// the arenas keep, and grew an oversized chunk.
func TestReleasedRecorderRecordsAfresh(t *testing.T) {
	prog := &tir.Program{Loops: []tir.LoopInfo{
		{ID: 0, Candidate: true, AnnLocals: []int{3}},
		{ID: 1, Candidate: true, AnnLocals: []int{3, 40}},
	}}

	// Job A: loop 1, synchronized slots 3 and 40, many iterations, one
	// of them with more accesses than the largest arena chunk.
	a := []vmsim.Event{loopStart(0, 1, 5)}
	now := int64(0)
	for k := 0; k < 3000; k++ {
		n := 60
		if k == 1500 {
			n = 40_000
		}
		for i := 0; i < n; i++ {
			now++
			a = append(a, heapStore(now, uint32(i*4), int32(i)), localLoad(now, 5, 40, 1))
		}
		now += 10
		a = append(a, loopIter(now, 1))
	}
	a = append(a, loopEnd(now, 1))

	// Job B: loop 0 in frame 5, over several chunks. Slot 40 is not loop
	// 0's, so its events must be dropped although job A tracked it.
	b := []vmsim.Event{loopStart(0, 0, 5)}
	now = 0
	for k := 0; k < 700; k++ {
		for i := 0; i < k%9*8; i++ {
			now++
			b = append(b, heapLoad(now, uint32(k*64+i*4), int32(i)), localLoad(now, 5, 40, 2), localStore(now, 5, 3, 3))
		}
		now += 10
		b = append(b, loopIter(now, 0))
	}
	b = append(b, loopEnd(now, 0))

	record := func(rec *tls.Recorder, evs []vmsim.Event) []*tls.Entry {
		for i := 0; i < len(evs); i += 256 {
			rec.ConsumeEvents(evs[i:min(i+256, len(evs))])
		}
		return rec.Entries
	}
	wantA := record(tls.NewRecorder(prog, []int{1}), a)
	if len(wantA) != 1 || len(wantA[0].Iters) != 3001 {
		t.Fatalf("job A recorded %d entries", len(wantA))
	}
	wantB := record(tls.NewRecorder(prog, []int{0}), b)

	// Alternate the jobs on one recorder, so each reuses the chunks the
	// other left behind.
	rec := tls.NewRecorder(prog, nil)
	for round := 0; round < 3; round++ {
		for _, job := range []struct {
			name string
			loop int
			evs  []vmsim.Event
			want []*tls.Entry
		}{{"A", 1, a, wantA}, {"B", 0, b, wantB}} {
			got := record(tls.Reuse(rec, prog, []int{job.loop}), job.evs)
			if !reflect.DeepEqual(got, job.want) {
				t.Fatalf("round %d, job %s: reused recorder's entries differ from a fresh recorder's", round, job.name)
			}
			for k, it := range got[0].Iters {
				if cap(it.Acc) != len(it.Acc) {
					t.Fatalf("round %d, job %s, iter %d: window len %d cap %d", round, job.name, k, len(it.Acc), cap(it.Acc))
				}
			}
		}
	}
}
