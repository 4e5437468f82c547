package core

// refTracer is the one-config-per-model comparator-bank tracer the
// grouped model replaced. It is kept as the reference that
// TestGroupMatchesReference holds every config of a Group against.

import (
	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// refBank is one comparator bank (Figure 7) bound to a dynamic loop entry.
type refBank struct {
	loopID    int
	frame     uint64
	numLocals int
	allocated bool // false: placeholder for an untraced loop entry

	entryStart int64
	tsCur      int64 // thread start timestamp (t)
	tsPrev     int64 // thread start timestamp (t-1)
	threadIdx  int64 // threads started in this entry (current = threadIdx+1)

	// Per-thread critical-arc state.
	hasArc   [2]bool
	minArc   [2]int64
	minArcPC [2]int

	// Per-thread overflow state.
	ldLines    int
	stLines    int
	overflowed bool

	// Per-entry accumulation, folded into the loop table at eloop.
	acc LoopStats

	// slotPos maps a named-local slot to its position in the loop's
	// AnnLocals (-1: not reserved by this loop); it is shared by every
	// entry of the loop. localTS holds the bank's own store timestamps by
	// that position: each sloop reserves its own local-variable timestamp
	// entries (Table 4), so an inner loop freeing its reservation never
	// disturbs an outer bank's view of the same variable.
	slotPos []int32
	localTS []int64
}

// localPos returns slot's position in the bank's local timestamp
// entries, or -1 when the bank did not reserve the slot.
func (b *refBank) localPos(slot int) int {
	if uint(slot) >= uint(len(b.slotPos)) {
		return -1
	}
	return int(b.slotPos[slot])
}

// refLoopState is the reference tracer's per-static-loop bookkeeping, indexed by loop
// id.
type refLoopState struct {
	stats    *LoopStats    // nil until the loop first reports
	parents  map[int]int64 // this loop's row of parentEdges
	slotPos  []int32       // see bank.slotPos; built on first allocation
	disabled bool          // thread quota reached
	freed    bool          // bank released due to persistent overflow
}

// refTracer is the full TEST hardware model: the comparator bank array plus
// the repurposed store buffers, driven by the VM event stream.
type refTracer struct {
	cfg  hydra.Config
	opts Options
	prog *tir.Program

	heapTS *storeFIFO
	ldLine []lineEntry
	stLine []lineEntry

	stack      []*refBank
	pool       []*refBank // banks released at eloop, reused by later sloops
	inUseBanks int
	localUsed  int

	loops []refLoopState
	table map[int]*LoopStats

	// parentEdges records observed dynamic nesting: child loop -> parent
	// loop (-1 at top level) -> entry count. The profile analyzer turns
	// this into the dynamic loop tree that Equation 2 selects over.
	parentEdges map[int]map[int]int64
}

// Compile-time check that refTracer is a VM listener.
var _ vmsim.Listener = (*refTracer)(nil)

// ConsumeEvents implements vmsim.Listener: the VM hands the tracer whole
// event batches — one interface dispatch per batch instead of one per
// event — and the demultiplexing below resolves to direct method calls on
// the concrete refTracer. Events are processed in order, so the
// comparator-bank state evolves exactly as it would under per-event
// delivery. Call-boundary events are skipped: the hardware model watches
// only the annotated stream.
func (t *refTracer) ConsumeEvents(evs []vmsim.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case vmsim.EvHeapLoad:
			t.HeapLoad(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvHeapStore:
			t.HeapStore(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvLocalLoad:
			t.LocalLoad(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLocalStore:
			t.LocalStore(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLoopStart:
			t.LoopStart(ev.Now, int(ev.Loop), int(ev.NumLocals), ev.Frame)
		case vmsim.EvLoopIter:
			t.LoopIter(ev.Now, int(ev.Loop))
		case vmsim.EvLoopEnd:
			t.LoopEnd(ev.Now, int(ev.Loop))
		case vmsim.EvReadStats:
			t.ReadStats(ev.Now, int(ev.Loop))
		}
	}
}

// newRefTracer builds a tracer for prog with the given machine config.
func newRefTracer(prog *tir.Program, cfg hydra.Config, opts Options) *refTracer {
	return &refTracer{
		cfg:         cfg,
		opts:        opts,
		prog:        prog,
		heapTS:      &storeFIFO{cap: cfg.Tracer.HeapStoreLines},
		ldLine:      make([]lineEntry, cfg.Tracer.LoadLineTS),
		stLine:      make([]lineEntry, cfg.Tracer.StoreLineTS),
		loops:       make([]refLoopState, len(prog.Loops)),
		table:       map[int]*LoopStats{},
		parentEdges: map[int]map[int]int64{},
	}
}

// ParentEdges returns the observed dynamic nesting edge counts:
// child loop id -> parent loop id (-1 for top level) -> entries.
func (t *refTracer) ParentEdges() map[int]map[int]int64 { return t.parentEdges }

// Results returns the per-loop statistics table collected so far.
func (t *refTracer) Results() map[int]*LoopStats { return t.table }

func (t *refTracer) loopStats(loop int) *LoopStats {
	ls := &t.loops[loop]
	if ls.stats == nil {
		ls.stats = &LoopStats{Loop: loop}
		if t.opts.Extended {
			ls.stats.PCArcs = map[int]*PCArcStats{}
		}
		t.table[loop] = ls.stats
	}
	return ls.stats
}

// slotPositions returns loop's slot -> AnnLocals position table.
func (t *refTracer) slotPositions(loop int) []int32 {
	ls := &t.loops[loop]
	if ls.slotPos == nil {
		ann := t.prog.Loops[loop].AnnLocals
		n := 0
		for _, s := range ann {
			n = max(n, s+1)
		}
		ls.slotPos = make([]int32, n)
		for i := range ls.slotPos {
			ls.slotPos[i] = -1
		}
		for i, s := range ann {
			if ls.slotPos[s] < 0 {
				ls.slotPos[s] = int32(i)
			}
		}
	}
	return ls.slotPos
}

// newBank takes a bank from the pool (or allocates one) and resets it
// for a new loop entry, keeping its local timestamp storage.
func (t *refTracer) newBank() *refBank {
	var b *refBank
	if n := len(t.pool); n > 0 {
		b = t.pool[n-1]
		t.pool = t.pool[:n-1]
		*b = refBank{localTS: b.localTS[:0]}
	} else {
		b = &refBank{}
	}
	return b
}

// LoopStart handles an sloop annotation: allocate a comparator bank if the
// runtime policies allow, otherwise push an inactive placeholder so the
// stack discipline stays aligned with eloop events.
func (t *refTracer) LoopStart(now int64, loop, numLocals int, frame uint64) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].loopID
	}
	ls := &t.loops[loop]
	if ls.parents == nil {
		ls.parents = map[int]int64{}
		t.parentEdges[loop] = ls.parents
	}
	ls.parents[parent]++

	b := t.newBank()
	b.loopID, b.frame, b.numLocals = loop, frame, numLocals
	switch {
	case ls.disabled || ls.freed:
		// Annotations for this loop are logically nop'd out.
	case t.inUseBanks >= t.cfg.Tracer.Banks:
		t.loopStats(loop).SkippedEntries++
	case t.localUsed+numLocals > t.cfg.Tracer.LocalSlots:
		t.loopStats(loop).SkippedEntries++
	default:
		b.allocated = true
		b.entryStart = now
		b.tsCur = now
		b.resetThread()
		b.slotPos = t.slotPositions(loop)
		for range t.prog.Loops[loop].AnnLocals {
			b.localTS = append(b.localTS, noStore)
		}
		t.inUseBanks++
		t.localUsed += numLocals
	}
	t.stack = append(t.stack, b)
}

func (b *refBank) resetThread() {
	b.hasArc[0], b.hasArc[1] = false, false
	b.ldLines, b.stLines = 0, 0
	b.overflowed = false
}

// endThread folds the current thread's critical arcs and overflow flag
// into the entry accumulator, then starts the next thread at time now.
func (b *refBank) endThread(now int64, t *refTracer) {
	for bin := 0; bin < 2; bin++ {
		if b.hasArc[bin] {
			b.acc.ArcCount[bin]++
			b.acc.ArcLenSum[bin] += b.minArc[bin]
			if t.opts.Extended {
				s := t.loopStats(b.loopID)
				pa := s.PCArcs[b.minArcPC[bin]]
				if pa == nil {
					pa = &PCArcStats{MinLen: b.minArc[bin]}
					s.PCArcs[b.minArcPC[bin]] = pa
				}
				pa.Count++
				pa.LenSum += b.minArc[bin]
				if b.minArc[bin] < pa.MinLen {
					pa.MinLen = b.minArc[bin]
				}
			}
		}
	}
	if b.overflowed {
		b.acc.Overflows++
	}
	if b.ldLines > b.acc.MaxLdLines {
		b.acc.MaxLdLines = b.ldLines
	}
	if b.stLines > b.acc.MaxStLines {
		b.acc.MaxStLines = b.stLines
	}
	b.threadIdx++
	b.tsPrev = b.tsCur
	b.tsCur = now
	b.resetThread()
}

// LoopIter handles an eoi annotation: shift the thread start timestamps of
// the matching bank.
func (t *refTracer) LoopIter(now int64, loop int) {
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i].loopID == loop {
			if t.stack[i].allocated {
				t.stack[i].endThread(now, t)
			}
			return
		}
	}
}

// LoopEnd handles an eloop annotation: finish the final thread, fold the
// entry's counters into the loop table, free the bank, and apply the
// runtime policies (overflow release, thread quota).
func (t *refTracer) LoopEnd(now int64, loop int) {
	n := len(t.stack) - 1
	if n < 0 {
		return
	}
	b := t.stack[n]
	t.stack = t.stack[:n]
	if b.loopID != loop {
		// Mismatched nesting should be impossible with well-formed
		// annotations; scan down defensively.
		for i := n - 1; i >= 0; i-- {
			if t.stack[i].loopID == loop {
				t.pool = append(t.pool, b)
				b = t.stack[i]
				t.stack = append(t.stack[:i], t.stack[i+1:]...)
				break
			}
		}
	}
	t.pool = append(t.pool, b)
	if !b.allocated {
		return
	}
	b.endThread(now, t)
	b.acc.Threads = b.threadIdx
	b.acc.Entries = 1
	b.acc.Cycles = now - b.entryStart
	s := t.loopStats(loop)
	s.add(&b.acc)
	t.inUseBanks--
	t.localUsed -= b.numLocals

	if t.opts.OverflowFree > 0 && s.Threads >= t.opts.MinThreads &&
		float64(s.Overflows) > t.opts.OverflowFree*float64(s.Threads) {
		t.loops[loop].freed = true
	}
	if t.opts.ThreadQuota > 0 && s.Threads >= t.opts.ThreadQuota {
		t.loops[loop].disabled = true
	}
}

// ReadStats is a timing-only event (the VM charges the software routine's
// cycles); statistics are folded at LoopEnd.
func (t *refTracer) ReadStats(now int64, loop int) {}

// dependency runs the load dependency analysis (§4.2.1) for one load with
// the given last-store timestamp against every active bank.
func (t *refTracer) dependency(now int64, storeTS int64, pc int) {
	for _, b := range t.stack {
		if !b.allocated {
			continue
		}
		if storeTS < b.entryStart || storeTS >= b.tsCur {
			// Stored before this STL entry, or within the current
			// thread: not an inter-thread dependency for this loop.
			continue
		}
		bin := BinEarlier
		if b.threadIdx >= 1 && storeTS >= b.tsPrev {
			bin = BinPrev
		}
		arc := now - storeTS
		if !b.hasArc[bin] || arc < b.minArc[bin] {
			b.hasArc[bin] = true
			b.minArc[bin] = arc
			b.minArcPC[bin] = pc
		}
	}
}

// HeapLoad implements the automatic tracing of lw instructions: the load
// dependency analysis plus the load-line half of the overflow analysis.
func (t *refTracer) HeapLoad(now int64, addr uint32, pc int) {
	if ts, ok := t.heapTS.lookup(addr); ok {
		t.dependency(now, ts, pc)
	}
	// Overflow analysis, load geometry: index bits 13:5, tag bits 31:14.
	idx := (addr / hydra.LineSize) % uint32(len(t.ldLine))
	tag := addr >> 14
	e := &t.ldLine[idx]
	for _, b := range t.stack {
		if !b.allocated {
			continue
		}
		if !(e.valid && e.tag == tag && e.ts >= b.tsCur) {
			b.ldLines++
			if b.ldLines > t.cfg.Buffers.LoadLines {
				b.overflowed = true
			}
		}
	}
	e.valid, e.tag, e.ts = true, tag, now
}

// HeapStore implements the automatic tracing of sw instructions: record
// the store timestamp for later loads plus the store-line half of the
// overflow analysis.
func (t *refTracer) HeapStore(now int64, addr uint32, pc int) {
	t.heapTS.record(addr, now)
	// Overflow analysis, store geometry: index bits 10:5, tag bits 31:11.
	idx := (addr / hydra.LineSize) % uint32(len(t.stLine))
	tag := addr >> 11
	e := &t.stLine[idx]
	for _, b := range t.stack {
		if !b.allocated {
			continue
		}
		if !(e.valid && e.tag == tag && e.ts >= b.tsCur) {
			b.stLines++
			if b.stLines > t.cfg.Buffers.StoreLines {
				b.overflowed = true
			}
		}
	}
	e.valid, e.tag, e.ts = true, tag, now
}

// LocalLoad handles an lwl annotation: local variables take part in the
// dependency analysis (they carry loop-borne scalar dependencies) but not
// in the overflow analysis (they live in registers, not buffers). Each
// bank consults its own reserved timestamp entry for the variable.
func (t *refTracer) LocalLoad(now int64, id vmsim.SlotID, pc int) {
	for _, b := range t.stack {
		if !b.allocated || b.frame != id.Frame {
			continue
		}
		p := b.localPos(id.Slot)
		if p < 0 {
			continue
		}
		ts := b.localTS[p]
		if ts < b.entryStart || ts >= b.tsCur {
			continue
		}
		bin := BinEarlier
		if b.threadIdx >= 1 && ts >= b.tsPrev {
			bin = BinPrev
		}
		arc := now - ts
		if !b.hasArc[bin] || arc < b.minArc[bin] {
			b.hasArc[bin] = true
			b.minArc[bin] = arc
			b.minArcPC[bin] = pc
		}
	}
}

// LocalStore handles an swl annotation: every active bank that reserved
// the variable records its own store timestamp.
func (t *refTracer) LocalStore(now int64, id vmsim.SlotID, pc int) {
	for _, b := range t.stack {
		if !b.allocated || b.frame != id.Frame {
			continue
		}
		if p := b.localPos(id.Slot); p >= 0 {
			b.localTS[p] = now
		}
	}
}
