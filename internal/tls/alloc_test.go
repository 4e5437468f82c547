package tls_test

import (
	"testing"

	"jrpm/internal/hydra"
	"jrpm/internal/tls"
	"jrpm/internal/vmsim"
)

// chainEntry builds one entry of n iterations with acc accesses each:
// every iteration loads the words the previous one stored and stores
// words of its own from a pool of pool words, plus one synchronized
// local, so RAW tracking, violations, stalls and the line sets all work.
func chainEntry(n, acc, pool int) *tls.Entry {
	e := &tls.Entry{}
	for k := 0; k < n; k++ {
		it := tls.Iter{Len: 400}
		for a := 0; a < acc; a++ {
			word := uint64((k*acc+a)%pool) * 4
			it.Acc = append(it.Acc,
				tls.Access{Rel: int64(a), Addr: word, Kind: tls.Load, PC: int32(a)},
				tls.Access{Rel: int64(300 + a), Addr: word + 4, Kind: tls.Store, PC: int32(acc + a)})
		}
		it.Acc = append(it.Acc,
			tls.Access{Rel: 1, Addr: 1<<40 | 1, Kind: tls.LocalLoad, PC: 1},
			tls.Access{Rel: 350, Addr: 1<<40 | 1, Kind: tls.LocalStore, PC: 2})
		e.Iters = append(e.Iters, it)
		e.SeqCycles += it.Len
	}
	return e
}

// TestSimulateAllocsIndependentOfIterations: the simulator's scratch
// tables and buffers are per call and sized by the largest thread, so
// doubling the iterations allocates nothing more, and doubling each
// thread's footprint allocates only table and buffer doublings.
func TestSimulateAllocsIndependentOfIterations(t *testing.T) {
	cfg := hydra.DefaultConfig()
	cfg.Buffers.StoreLines = 8 // every thread exercises the line sets
	allocs := func(e *tls.Entry) float64 {
		entries := []*tls.Entry{e, e}
		return testing.AllocsPerRun(5, func() { tls.Simulate(entries, cfg) })
	}

	base := allocs(chainEntry(512, 16, 64))
	if base > 32 {
		t.Fatalf("Simulate of 2x512 threads made %.0f allocations; want a bounded few", base)
	}
	if twice := allocs(chainEntry(1024, 16, 64)); twice != base {
		t.Errorf("doubling the iterations: %.0f -> %.0f allocations, want no change", base, twice)
	}
	// Twice the accesses and words per thread: the times buffer and the
	// tables holding one thread's words or lines (written, ldLines,
	// stLines) and one entry's stored words (stores) may each double once.
	if twice := allocs(chainEntry(512, 32, 128)); twice > base+5 {
		t.Errorf("doubling the accesses: %.0f -> %.0f allocations, want at most 5 table or buffer doublings more", base, twice)
	}
}

// chainEvents is the event stream of one recorded entry of loop 0 with n
// iterations of acc heap accesses and one synchronized local each.
func chainEvents(n, acc int) []vmsim.Event {
	evs := []vmsim.Event{loopStart(0, 0, 9)}
	now := int64(0)
	for k := 0; k < n; k++ {
		for a := 0; a < acc; a++ {
			now++
			evs = append(evs, heapLoad(now, uint32(a*4), int32(a)), heapStore(now, uint32(a*4+4), int32(a)))
		}
		evs = append(evs, localStore(now, 9, 3, 1))
		now += 10
		if k < n-1 {
			evs = append(evs, loopIter(now, 0))
		}
	}
	return append(evs, loopEnd(now, 0))
}

// TestRecorderAllocsIndependentOfIterations: accesses and iterations are
// carved out of chunked arenas, so a recording allocates per chunk, never
// per iteration or per access: doubling either adds at most one chunk to
// each of the two arenas.
func TestRecorderAllocsIndependentOfIterations(t *testing.T) {
	prog := recorderProg()
	allocs := func(evs []vmsim.Event) float64 {
		return testing.AllocsPerRun(5, func() {
			rec := tls.NewRecorder(prog, []int{0})
			for i := 0; i < len(evs); i += 256 { // VM-sized batches
				rec.ConsumeEvents(evs[i:min(i+256, len(evs))])
			}
			if len(rec.Entries) != 1 {
				t.Fatalf("entries = %d", len(rec.Entries))
			}
		})
	}

	base := allocs(chainEvents(1024, 2))
	if base > 16 {
		t.Fatalf("recording 1024 iterations made %.0f allocations; want a bounded few", base)
	}
	if twice := allocs(chainEvents(2048, 2)); twice > base+2 {
		t.Errorf("doubling the iterations: %.0f -> %.0f allocations, want at most 2 arena chunks more", base, twice)
	}
	if twice := allocs(chainEvents(1024, 4)); twice > base+2 {
		t.Errorf("doubling the accesses: %.0f -> %.0f allocations, want at most 2 arena chunks more", base, twice)
	}
}
