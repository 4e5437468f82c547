package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// makeProg builds a minimal program whose loop table has n loops, each
// tracking the given local slots.
func makeProg(n int, annLocals ...[]int) *tir.Program {
	p := &tir.Program{}
	for i := 0; i < n; i++ {
		info := tir.LoopInfo{ID: i, Candidate: true}
		if i < len(annLocals) {
			info.AnnLocals = annLocals[i]
			info.NumLocals = len(annLocals[i])
		}
		p.Loops = append(p.Loops, info)
	}
	return p
}

func newTracer(p *tir.Program, mut func(*hydra.Config)) *core.Tracer {
	cfg := hydra.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	return core.NewTracer(p, cfg, core.Options{})
}

// TestDependencyBins drives the Figure 3 analysis by hand: a store in
// thread 1 produces a t-1 arc when loaded in thread 2 and a <t-1 arc when
// loaded again in thread 3.
func TestDependencyBins(t *testing.T) {
	tr := newTracer(makeProg(1), nil)
	tr.LoopStart(0, 0, 0, 1)
	tr.HeapStore(10, 0x1000, 1)
	tr.LoopIter(100, 0) // thread 2 starts
	tr.HeapLoad(150, 0x1000, 2)
	tr.LoopIter(200, 0) // thread 3 starts
	tr.HeapLoad(250, 0x1000, 3)
	tr.LoopEnd(300, 0)

	s := tr.Results()[0]
	if s == nil {
		t.Fatal("no stats for loop 0")
	}
	if s.Threads != 3 || s.Entries != 1 {
		t.Fatalf("threads=%d entries=%d, want 3/1", s.Threads, s.Entries)
	}
	if s.Cycles != 300 {
		t.Fatalf("cycles=%d, want 300", s.Cycles)
	}
	if s.ArcCount[core.BinPrev] != 1 || s.ArcLenSum[core.BinPrev] != 140 {
		t.Fatalf("t-1 bin = (%d, %d), want (1, 140)", s.ArcCount[core.BinPrev], s.ArcLenSum[core.BinPrev])
	}
	if s.ArcCount[core.BinEarlier] != 1 || s.ArcLenSum[core.BinEarlier] != 240 {
		t.Fatalf("<t-1 bin = (%d, %d), want (1, 240)", s.ArcCount[core.BinEarlier], s.ArcLenSum[core.BinEarlier])
	}
}

// TestCriticalArcIsShortest checks that only the shortest arc per thread
// pair is recorded ("we only record the critical arc").
func TestCriticalArcIsShortest(t *testing.T) {
	tr := newTracer(makeProg(1), nil)
	tr.LoopStart(0, 0, 0, 1)
	tr.HeapStore(10, 0x1000, 1) // arc length 140 if loaded at 150
	tr.HeapStore(50, 0x2000, 2) // arc length 110 if loaded at 160
	tr.LoopIter(100, 0)
	tr.HeapLoad(150, 0x1000, 3)
	tr.HeapLoad(160, 0x2000, 4)
	tr.LoopEnd(200, 0)

	s := tr.Results()[0]
	if s.ArcCount[core.BinPrev] != 1 {
		t.Fatalf("arc count = %d, want 1 (one critical arc per thread)", s.ArcCount[core.BinPrev])
	}
	if s.ArcLenSum[core.BinPrev] != 110 {
		t.Fatalf("critical arc length = %d, want the shortest (110)", s.ArcLenSum[core.BinPrev])
	}
}

// TestPreLoopStoresIgnored: stores before the STL entry are not
// inter-thread dependencies.
func TestPreLoopStoresIgnored(t *testing.T) {
	tr := newTracer(makeProg(1), nil)
	tr.HeapStore(5, 0x1000, 1) // before sloop
	tr.LoopStart(10, 0, 0, 1)
	tr.LoopIter(50, 0)
	tr.HeapLoad(60, 0x1000, 2)
	tr.LoopEnd(100, 0)
	s := tr.Results()[0]
	if s.ArcCount[core.BinPrev] != 0 || s.ArcCount[core.BinEarlier] != 0 {
		t.Fatalf("arcs %v recorded for a pre-loop store", s.ArcCount)
	}
}

// TestIntraThreadIgnored: a store and load in the same thread never form
// an arc.
func TestIntraThreadIgnored(t *testing.T) {
	tr := newTracer(makeProg(1), nil)
	tr.LoopStart(0, 0, 0, 1)
	tr.LoopIter(10, 0)
	tr.HeapStore(20, 0x1000, 1)
	tr.HeapLoad(30, 0x1000, 2)
	tr.LoopEnd(100, 0)
	s := tr.Results()[0]
	if s.ArcCount[core.BinPrev] != 0 {
		t.Fatalf("intra-thread store/load counted as an arc")
	}
}

// TestOverflowAnalysis reproduces the Figure 4 mechanism with tiny buffer
// limits: a thread touching more distinct lines than the limit counts one
// overflow.
func TestOverflowAnalysis(t *testing.T) {
	tr := newTracer(makeProg(1), func(c *hydra.Config) {
		c.Buffers.LoadLines = 2
		c.Buffers.StoreLines = 1
	})
	tr.LoopStart(0, 0, 0, 1)
	// Thread 1: three distinct load lines -> exceeds the 2-line limit.
	tr.HeapLoad(10, 0x1000, 1)
	tr.HeapLoad(20, 0x2000, 2)
	tr.HeapLoad(30, 0x3000, 3)
	tr.LoopIter(50, 0)
	// Thread 2: stays within limits.
	tr.HeapLoad(60, 0x1000, 4)
	tr.LoopEnd(100, 0)

	s := tr.Results()[0]
	if s.Overflows != 1 {
		t.Fatalf("overflows = %d, want 1", s.Overflows)
	}
	if s.MaxLdLines != 3 {
		t.Fatalf("max load lines = %d, want 3", s.MaxLdLines)
	}
	if s.Threads != 2 {
		t.Fatalf("threads = %d, want 2", s.Threads)
	}
}

// TestOverflowStoreLimit: the store-line counter uses the store-buffer
// limit.
func TestOverflowStoreLimit(t *testing.T) {
	tr := newTracer(makeProg(1), func(c *hydra.Config) {
		c.Buffers.StoreLines = 2
	})
	tr.LoopStart(0, 0, 0, 1)
	tr.HeapStore(10, 0x1000, 1)
	tr.HeapStore(20, 0x1020, 2) // adjacent line, distinct table index
	tr.HeapStore(30, 0x1004, 3) // same line as 0x1000: not a new line
	tr.LoopEnd(50, 0)
	if s := tr.Results()[0]; s.Overflows != 0 || s.MaxStLines != 2 {
		t.Fatalf("overflows=%d maxStLines=%d, want 0/2", s.Overflows, s.MaxStLines)
	}

	tr2 := newTracer(makeProg(1), func(c *hydra.Config) {
		c.Buffers.StoreLines = 2
	})
	tr2.LoopStart(0, 0, 0, 1)
	tr2.HeapStore(10, 0x1000, 1)
	tr2.HeapStore(20, 0x1020, 2)
	tr2.HeapStore(30, 0x1040, 3)
	tr2.LoopEnd(50, 0)
	if s := tr2.Results()[0]; s.Overflows != 1 {
		t.Fatalf("overflows=%d, want 1", s.Overflows)
	}
}

// TestDirectMappedAliasing documents the imprecision section 5.3 admits:
// the store-line timestamp table is direct mapped (index bits 10:5), so
// lines 0x1000, 0x2000 and 0x3000 all alias to index 0 and a line can be
// re-counted after an intervening aliasing store.
func TestDirectMappedAliasing(t *testing.T) {
	tr := newTracer(makeProg(1), func(c *hydra.Config) {
		c.Buffers.StoreLines = 2
	})
	tr.LoopStart(0, 0, 0, 1)
	tr.HeapStore(10, 0x1000, 1)
	tr.HeapStore(20, 0x2000, 2) // evicts 0x1000's table entry
	tr.HeapStore(30, 0x1004, 3) // same real line as 0x1000, but recounted
	tr.LoopEnd(50, 0)
	if s := tr.Results()[0]; s.MaxStLines != 3 || s.Overflows != 1 {
		t.Fatalf("maxStLines=%d overflows=%d, want 3/1 (aliasing error)", s.MaxStLines, s.Overflows)
	}
}

// TestStoreFIFOEviction: the 192-line write history is finite; once a
// store's line is evicted its timestamp is lost and the dependency is
// missed (a documented imprecision, section 6.2).
func TestStoreFIFOEviction(t *testing.T) {
	tr := newTracer(makeProg(1), func(c *hydra.Config) {
		c.Tracer.HeapStoreLines = 2
	})
	tr.LoopStart(0, 0, 0, 1)
	tr.HeapStore(10, 0x1000, 1)
	tr.HeapStore(20, 0x2000, 2)
	tr.HeapStore(30, 0x3000, 3) // evicts 0x1000's line
	tr.LoopIter(50, 0)
	tr.HeapLoad(60, 0x1000, 4) // timestamp gone: no arc
	tr.HeapLoad(70, 0x3000, 5) // still present: arc
	tr.LoopEnd(100, 0)

	s := tr.Results()[0]
	if s.ArcCount[core.BinPrev] != 1 || s.ArcLenSum[core.BinPrev] != 40 {
		t.Fatalf("bin t-1 = (%d,%d), want (1,40): eviction must drop the old arc",
			s.ArcCount[core.BinPrev], s.ArcLenSum[core.BinPrev])
	}
}

// TestBankExhaustion: with a 2-bank array, the third simultaneously active
// loop runs untraced and its entry is counted as skipped.
func TestBankExhaustion(t *testing.T) {
	tr := newTracer(makeProg(3), func(c *hydra.Config) {
		c.Tracer.Banks = 2
	})
	tr.LoopStart(0, 0, 0, 1)
	tr.LoopStart(10, 1, 0, 1)
	tr.LoopStart(20, 2, 0, 1) // no bank left
	tr.HeapStore(25, 0x1000, 1)
	tr.LoopIter(30, 2)
	tr.HeapLoad(35, 0x1000, 2)
	tr.LoopEnd(40, 2)
	tr.LoopEnd(50, 1)
	tr.LoopEnd(60, 0)

	if s := tr.Results()[2]; s == nil || s.SkippedEntries != 1 || s.Threads != 0 {
		t.Fatalf("loop 2 should be skipped once and untraced, got %+v", s)
	}
	if s := tr.Results()[0]; s == nil || s.Threads != 1 {
		t.Fatalf("outer loop should still be traced, got %+v", s)
	}
	// The inner arc must still be visible to the outer banks? No: the
	// store and load are in the same outer thread, so no arc there.
	if s := tr.Results()[0]; s.ArcCount[core.BinPrev] != 0 {
		t.Fatalf("outer loop recorded an intra-thread arc")
	}
}

// TestLocalTimestampCapacity: sloop fails to allocate when the 64-entry
// local-variable timestamp buffer has no room ("no room left for local
// variable timestamps").
func TestLocalTimestampCapacity(t *testing.T) {
	tr := newTracer(makeProg(2, []int{0, 1, 2}, []int{0, 1}), func(c *hydra.Config) {
		c.Tracer.LocalSlots = 4
	})
	tr.LoopStart(0, 0, 3, 1)  // reserves 3 of 4
	tr.LoopStart(10, 1, 2, 1) // needs 2, only 1 left -> skipped
	tr.LoopEnd(20, 1)
	tr.LoopEnd(30, 0)
	if s := tr.Results()[1]; s == nil || s.SkippedEntries != 1 {
		t.Fatalf("inner loop should be skipped for lack of local timestamps, got %+v", s)
	}
}

// TestLocalDependencyAnalysis: lwl/swl events feed the same two-bin arc
// analysis, scoped to the reserving bank's frame and slots.
func TestLocalDependencyAnalysis(t *testing.T) {
	tr := newTracer(makeProg(1, []int{7}), nil)
	tr.LoopStart(0, 0, 1, 42)
	tr.LocalStore(10, vmsim.SlotID{Frame: 42, Slot: 7}, 1)
	tr.LoopIter(100, 0)
	tr.LocalLoad(130, vmsim.SlotID{Frame: 42, Slot: 7}, 2) // arc, len 120
	tr.LocalLoad(140, vmsim.SlotID{Frame: 99, Slot: 7}, 3) // wrong frame
	tr.LocalLoad(150, vmsim.SlotID{Frame: 42, Slot: 3}, 4) // untracked slot
	tr.LoopEnd(200, 0)

	s := tr.Results()[0]
	if s.ArcCount[core.BinPrev] != 1 || s.ArcLenSum[core.BinPrev] != 120 {
		t.Fatalf("local arc bin = (%d,%d), want (1,120)", s.ArcCount[core.BinPrev], s.ArcLenSum[core.BinPrev])
	}
}

// TestInnerLoopReservationDoesNotClobberOuter: each bank keeps its own
// local timestamps, so an inner loop's eloop (freeing its reservation)
// must not erase the outer bank's view of a shared variable.
func TestInnerLoopReservationDoesNotClobberOuter(t *testing.T) {
	tr := newTracer(makeProg(2, []int{5}, []int{5}), nil)
	tr.LoopStart(0, 0, 1, 1) // outer tracks slot 5
	tr.LoopStart(10, 1, 1, 1)
	tr.LocalStore(20, vmsim.SlotID{Frame: 1, Slot: 5}, 1)
	tr.LoopEnd(30, 1) // inner frees its reservation
	tr.LoopIter(50, 0)
	tr.LocalLoad(80, vmsim.SlotID{Frame: 1, Slot: 5}, 2)
	tr.LoopEnd(100, 0)

	s := tr.Results()[0]
	if s.ArcCount[core.BinPrev] != 1 || s.ArcLenSum[core.BinPrev] != 60 {
		t.Fatalf("outer bank lost the local timestamp: bin = (%d,%d), want (1,60)",
			s.ArcCount[core.BinPrev], s.ArcLenSum[core.BinPrev])
	}
}

// TestOverflowFreePolicy: a persistently overflowing loop releases its
// bank for deeper loops (§5.2).
func TestOverflowFreePolicy(t *testing.T) {
	cfg := hydra.DefaultConfig()
	cfg.Buffers.LoadLines = 1
	tr := core.NewTracer(makeProg(1), cfg, core.Options{OverflowFree: 0.5, MinThreads: 1})
	// Entry 1: every thread overflows.
	tr.LoopStart(0, 0, 0, 1)
	tr.HeapLoad(10, 0x1000, 1)
	tr.HeapLoad(20, 0x2000, 2)
	tr.LoopEnd(30, 0)
	// Entry 2: the loop is now freed; no stats accumulate.
	tr.LoopStart(40, 0, 0, 1)
	tr.LoopEnd(50, 0)
	s := tr.Results()[0]
	if s.Entries != 1 {
		t.Fatalf("entries = %d: overflow-freed loop kept its bank", s.Entries)
	}
}

// TestThreadQuota: after enough threads, tracing for a loop is disabled
// (the runtime "nops out" its annotations).
func TestThreadQuota(t *testing.T) {
	tr := core.NewTracer(makeProg(1), hydra.DefaultConfig(), core.Options{ThreadQuota: 2})
	tr.LoopStart(0, 0, 0, 1)
	tr.LoopIter(10, 0)
	tr.LoopIter(20, 0)
	tr.LoopEnd(30, 0) // 3 threads >= quota 2 -> disabled
	tr.LoopStart(40, 0, 0, 1)
	tr.LoopIter(50, 0)
	tr.LoopEnd(60, 0)
	if s := tr.Results()[0]; s.Entries != 1 || s.Threads != 3 {
		t.Fatalf("quota did not disable tracing: entries=%d threads=%d", s.Entries, s.Threads)
	}
}

// TestExtendedPCBins: the extended tracer bins critical arcs by load PC.
func TestExtendedPCBins(t *testing.T) {
	tr := core.NewTracer(makeProg(1), hydra.DefaultConfig(), core.Options{Extended: true})
	tr.LoopStart(0, 0, 0, 1)
	tr.HeapStore(10, 0x1000, 1)
	tr.LoopIter(100, 0)
	tr.HeapLoad(150, 0x1000, 77)
	tr.LoopIter(200, 0)
	tr.HeapStore(210, 0x1000, 1)
	tr.LoopIter(300, 0)
	tr.HeapLoad(320, 0x1000, 77)
	tr.LoopEnd(400, 0)

	s := tr.Results()[0]
	pa := s.PCArcs[77]
	if pa == nil || pa.Count != 2 {
		t.Fatalf("PC 77 bin = %+v, want count 2", pa)
	}
	if pa.MinLen != 110 || pa.LenSum != 140+110 {
		t.Fatalf("PC 77 lengths: min=%d sum=%d, want 110/250", pa.MinLen, pa.LenSum)
	}
}

// TestParentEdges: dynamic nesting is recorded for the loop-tree builder.
func TestParentEdges(t *testing.T) {
	tr := newTracer(makeProg(2), nil)
	tr.LoopStart(0, 0, 0, 1)
	tr.LoopStart(10, 1, 0, 1)
	tr.LoopEnd(20, 1)
	tr.LoopStart(30, 1, 0, 1)
	tr.LoopEnd(40, 1)
	tr.LoopEnd(50, 0)
	pe := tr.ParentEdges()
	if pe[0][-1] != 1 {
		t.Fatalf("loop 0 top-level edges = %v", pe[0])
	}
	if pe[1][0] != 2 {
		t.Fatalf("loop 1 -> parent 0 edges = %v, want 2", pe[1])
	}
}

// refThread is the oracle's per-thread state for the property test.
type refThread struct {
	minArc [2]int64
	has    [2]bool
}

// TestDependencyAnalysisMatchesOracle is a property test: for random
// single-loop traces the comparator bank must agree with a brute-force
// oracle that remembers every store timestamp exactly (buffer capacities
// are configured large enough not to interfere).
func TestDependencyAnalysisMatchesOracle(t *testing.T) {
	type op struct {
		Kind uint8 // 0 load, 1 store, 2 eoi
		Addr uint16
	}
	f := func(ops []op) bool {
		tr := newTracer(makeProg(1), func(c *hydra.Config) {
			c.Tracer.HeapStoreLines = 1 << 20
		})
		now := int64(0)
		tr.LoopStart(now, 0, 0, 1)

		storeTS := map[uint32]int64{}
		threadStart := []int64{0} // start time per thread
		cur := refThread{}
		var wantCount, wantSum [2]int64
		fold := func() {
			for b := 0; b < 2; b++ {
				if cur.has[b] {
					wantCount[b]++
					wantSum[b] += cur.minArc[b]
				}
			}
			cur = refThread{}
		}
		for _, o := range ops {
			now += 1 + int64(o.Addr%7)
			addr := uint32(o.Addr) * 4
			switch o.Kind % 3 {
			case 0:
				tr.HeapLoad(now, addr, 1)
				if ts, ok := storeTS[addr]; ok && ts < threadStart[len(threadStart)-1] {
					bin := core.BinEarlier
					if len(threadStart) >= 2 && ts >= threadStart[len(threadStart)-2] {
						bin = core.BinPrev
					}
					arc := now - ts
					if !cur.has[bin] || arc < cur.minArc[bin] {
						cur.has[bin] = true
						cur.minArc[bin] = arc
					}
				}
			case 1:
				tr.HeapStore(now, addr, 1)
				storeTS[addr] = now
			case 2:
				tr.LoopIter(now, 0)
				fold()
				threadStart = append(threadStart, now)
			}
		}
		now++
		tr.LoopEnd(now, 0)
		fold()

		s := tr.Results()[0]
		return s.ArcCount[0] == wantCount[0] && s.ArcCount[1] == wantCount[1] &&
			s.ArcLenSum[0] == wantSum[0] && s.ArcLenSum[1] == wantSum[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowCountMatchesOracle: with an alias-free line-timestamp table
// the per-thread new-line counters equal the exact distinct-line counts.
func TestOverflowCountMatchesOracle(t *testing.T) {
	type op struct {
		Kind uint8 // 0 load, 1 store, 2 eoi
		Line uint8
	}
	f := func(ops []op) bool {
		tr := newTracer(makeProg(1), func(c *hydra.Config) {
			c.Buffers.LoadLines = 3
			c.Buffers.StoreLines = 2
		})
		now := int64(0)
		tr.LoopStart(now, 0, 0, 1)
		ldLines := map[uint32]bool{}
		stLines := map[uint32]bool{}
		over := false
		var wantOverflows int64
		wantThreads := int64(0)
		fold := func() {
			if over {
				wantOverflows++
			}
			ldLines, stLines, over = map[uint32]bool{}, map[uint32]bool{}, false
			wantThreads++
		}
		for _, o := range ops {
			now += 3
			// Addresses spread across lines; only 64 distinct lines, far
			// fewer than the 512-entry direct-mapped table, so no
			// aliasing.
			addr := uint32(o.Line%64) * 32
			switch o.Kind % 3 {
			case 0:
				tr.HeapLoad(now, addr, 1)
				ldLines[addr/32] = true
				if len(ldLines) > 3 {
					over = true
				}
			case 1:
				tr.HeapStore(now, addr, 1)
				stLines[addr/32] = true
				if len(stLines) > 2 {
					over = true
				}
			case 2:
				tr.LoopIter(now, 0)
				fold()
			}
		}
		now += 3
		tr.LoopEnd(now, 0)
		fold()
		s := tr.Results()[0]
		return s.Overflows == wantOverflows && s.Threads == wantThreads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestThreadAccountingMatchesPaper: threads per entry = eoi count + 1, as
// in the Figure 3 walkthrough (3 iterations, 2 back edges, eloop folds
// the final thread).
func TestThreadAccountingMatchesPaper(t *testing.T) {
	tr := newTracer(makeProg(1), nil)
	tr.LoopStart(0, 0, 0, 1)
	tr.LoopIter(11, 0)
	tr.LoopIter(21, 0)
	tr.LoopEnd(35, 0)
	s := tr.Results()[0]
	if s.Threads != 3 || s.Entries != 1 || s.Cycles != 35 {
		t.Fatalf("threads/entries/cycles = %d/%d/%d, want 3/1/35", s.Threads, s.Entries, s.Cycles)
	}
}

// TestEventsOutsideLoopsIgnored: heap traffic with no active bank leaves
// no statistics behind.
func TestEventsOutsideLoopsIgnored(t *testing.T) {
	tr := newTracer(makeProg(1), nil)
	tr.HeapStore(1, 0x1000, 1)
	tr.HeapLoad(2, 0x1000, 2)
	if len(tr.Results()) != 0 {
		t.Fatalf("stats appeared without any loop: %v", tr.Results())
	}
	// But a later loop can still see the pre-recorded store timestamp as
	// intra/pre-loop (no arc).
	tr.LoopStart(10, 0, 0, 1)
	tr.LoopIter(20, 0)
	tr.HeapLoad(25, 0x1000, 3)
	tr.LoopEnd(30, 0)
	if s := tr.Results()[0]; s.ArcCount[core.BinPrev] != 0 || s.ArcCount[core.BinEarlier] != 0 {
		t.Fatalf("pre-loop store produced arcs: %v", s.ArcCount)
	}
}

// TestOuterBankSeesThroughUntracedInner: when an inner loop cannot get a
// bank, the outer loop's analysis continues unaffected (events are
// broadcast, not owned by the innermost loop).
func TestOuterBankSeesThroughUntracedInner(t *testing.T) {
	tr := newTracer(makeProg(2), func(c *hydra.Config) {
		c.Tracer.Banks = 1
	})
	tr.LoopStart(0, 0, 0, 1)
	tr.LoopStart(5, 1, 0, 1) // no bank: placeholder
	tr.HeapStore(10, 0x1000, 1)
	tr.LoopEnd(15, 1)
	tr.LoopIter(20, 0)
	tr.LoopStart(25, 1, 0, 1)
	tr.HeapLoad(30, 0x1000, 2) // arc across outer threads
	tr.LoopEnd(35, 1)
	tr.LoopEnd(40, 0)
	s := tr.Results()[0]
	if s.ArcCount[core.BinPrev] != 1 || s.ArcLenSum[core.BinPrev] != 20 {
		t.Fatalf("outer arc bin = (%d,%d), want (1,20)", s.ArcCount[core.BinPrev], s.ArcLenSum[core.BinPrev])
	}
}

// TestRecursiveLoopActivations: the same static loop active twice (via
// recursion) keeps two independent banks.
func TestRecursiveLoopActivations(t *testing.T) {
	tr := newTracer(makeProg(1, []int{0}), nil)
	tr.LoopStart(0, 0, 1, 1) // outer activation, frame 1
	tr.LocalStore(5, vmsim.SlotID{Frame: 1, Slot: 0}, 1)
	tr.LoopStart(10, 0, 1, 2) // recursive activation, frame 2
	tr.LoopIter(20, 0)
	tr.LocalLoad(25, vmsim.SlotID{Frame: 2, Slot: 0}, 2) // no store in frame 2: no arc
	tr.LoopEnd(30, 0)
	tr.LoopIter(40, 0)
	tr.LocalLoad(45, vmsim.SlotID{Frame: 1, Slot: 0}, 3) // arc in the outer activation
	tr.LoopEnd(50, 0)
	s := tr.Results()[0]
	// Two activations: entries 2; arcs: exactly one (frame 1's).
	if s.Entries != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries)
	}
	if s.ArcCount[core.BinPrev] != 1 || s.ArcLenSum[core.BinPrev] != 40 {
		t.Fatalf("arc bin = (%d,%d), want (1,40)", s.ArcCount[core.BinPrev], s.ArcLenSum[core.BinPrev])
	}
}

// TestOverflowOncePerThread: a thread far over the limit still counts a
// single overflow.
func TestOverflowOncePerThread(t *testing.T) {
	tr := newTracer(makeProg(1), func(c *hydra.Config) {
		c.Buffers.LoadLines = 1
	})
	tr.LoopStart(0, 0, 0, 1)
	for i := 0; i < 10; i++ {
		tr.HeapLoad(int64(10+i), uint32(0x1000+i*32), i)
	}
	tr.LoopEnd(100, 0)
	if s := tr.Results()[0]; s.Overflows != 1 {
		t.Fatalf("overflows = %d, want 1 (counted once per thread)", s.Overflows)
	}
}

// mapFIFO is the original map-plus-order-slice store FIFO, kept as the
// oracle for the ring FIFO: oldest-allocated line evicted first.
type mapFIFO struct {
	cap     int
	entries map[uint32]*mapFIFOLine
	order   []uint32
	head    int
}

type mapFIFOLine struct {
	ts    [hydra.LineSize / hydra.WordSize]int64
	valid [hydra.LineSize / hydra.WordSize]bool
}

func (f *mapFIFO) record(addr uint32, ts int64) {
	line := addr / hydra.LineSize
	word := (addr % hydra.LineSize) / hydra.WordSize
	e := f.entries[line]
	if e == nil {
		if len(f.entries) >= f.cap {
			for {
				victim := f.order[f.head]
				f.head++
				if _, ok := f.entries[victim]; ok {
					delete(f.entries, victim)
					break
				}
			}
		}
		e = &mapFIFOLine{}
		f.entries[line] = e
		f.order = append(f.order, line)
	}
	e.ts[word] = ts
	e.valid[word] = true
}

func (f *mapFIFO) lookup(addr uint32) (int64, bool) {
	line := addr / hydra.LineSize
	word := (addr % hydra.LineSize) / hydra.WordSize
	e := f.entries[line]
	if e == nil || !e.valid[word] {
		return 0, false
	}
	return e.ts[word], true
}

// TestStoreFIFOMatchesMapOracle drives the ring FIFO and the map oracle
// with the same random stores and requires identical lookups. Addresses
// mostly fall in a window of a few times the FIFO depth, so lines are
// evicted and re-allocated constantly and the index sees long probe
// runs; a few land anywhere in the address space.
func TestStoreFIFOMatchesMapOracle(t *testing.T) {
	for _, lines := range []int{1, 2, 32, 192} {
		rng := rand.New(rand.NewSource(int64(lines)))
		ring := core.NewStoreFIFO(lines)
		oracle := &mapFIFO{cap: lines, entries: map[uint32]*mapFIFOLine{}}
		window := uint32(3*lines+1) * hydra.LineSize
		addr := func() uint32 {
			if rng.Intn(16) == 0 {
				return rng.Uint32()
			}
			return rng.Uint32() % window
		}
		for i := 0; i < 50000; i++ {
			a := addr()
			if rng.Intn(2) == 0 {
				ring.Record(a, int64(i))
				oracle.record(a, int64(i))
				continue
			}
			gt, gok := ring.Lookup(a)
			wt, wok := oracle.lookup(a)
			if gt != wt || gok != wok {
				t.Fatalf("lines=%d op %d: lookup(%#x) = (%d,%v), oracle (%d,%v)", lines, i, a, gt, gok, wt, wok)
			}
		}
	}
}

// eventModel is the per-event interface shared by a Tracer and a Group.
type eventModel interface {
	LoopStart(now int64, loop, numLocals int, frame uint64)
	LoopIter(now int64, loop int)
	LoopEnd(now int64, loop int)
	ReadStats(now int64, loop int)
	HeapLoad(now int64, addr uint32, pc int)
	HeapStore(now int64, addr uint32, pc int)
	LocalLoad(now int64, id vmsim.SlotID, pc int)
	LocalStore(now int64, id vmsim.SlotID, pc int)
}

// TestTracerAllocsIndependentOfLoopEntries: the model allocates per
// static loop and per distinct store line, never per loop entry or per
// event, so a run with 100x the loop entries allocates no more. This
// holds for a lone tracer and for an 8-config group.
func TestTracerAllocsIndependentOfLoopEntries(t *testing.T) {
	prog := makeProg(2, []int{0, 3}, []int{1})
	var cfgs []hydra.Config
	var opts []core.Options
	for _, banks := range []int{1, 2, 4, 8} {
		for _, ext := range []bool{false, true} {
			cfg := hydra.DefaultConfig()
			cfg.Tracer.Banks = banks
			o := core.DefaultOptions()
			o.Extended = ext
			cfgs, opts = append(cfgs, cfg), append(opts, o)
		}
	}
	for _, m := range []struct {
		name  string
		build func() eventModel
	}{
		{"single", func() eventModel { return core.NewTracer(prog, hydra.DefaultConfig(), core.DefaultOptions()) }},
		{"group-8", func() eventModel {
			g, err := core.NewGroup(prog, cfgs, opts)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	} {
		run := func(entries int) float64 {
			return testing.AllocsPerRun(5, func() {
				tr := m.build()
				now := int64(0)
				tick := func() int64 { now++; return now }
				tr.LoopStart(tick(), 0, 2, 1)
				for e := 0; e < entries; e++ {
					tr.LoopStart(tick(), 1, 1, 2)
					for it := 0; it < 4; it++ {
						a := uint32(0x1000 + 4*((e*4+it)%32))
						tr.HeapLoad(tick(), a, 1)
						tr.HeapStore(tick(), a+4, 2)
						tr.LocalLoad(tick(), vmsim.SlotID{Frame: 2, Slot: 1}, 3)
						tr.LocalStore(tick(), vmsim.SlotID{Frame: 2, Slot: 1}, 4)
						tr.LocalStore(tick(), vmsim.SlotID{Frame: 1, Slot: 3}, 5)
						tr.LoopIter(tick(), 1)
					}
					tr.LoopEnd(tick(), 1)
					tr.ReadStats(tick(), 1)
					tr.LoopIter(tick(), 0)
				}
				tr.LoopEnd(tick(), 0)
			})
		}
		few, many := run(10), run(1000)
		if many > few {
			t.Fatalf("%s: allocs grow with loop entries: %v allocs for 10 entries, %v for 1000", m.name, few, many)
		}
		t.Logf("%s: %v allocs per model run, independent of loop entries", m.name, few)
	}
}
