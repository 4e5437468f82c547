// Package core implements TEST — the Tracer for Extracting Speculative
// Threads — the paper's primary contribution (sections 4.2 and 5).
//
// The tracer watches a sequentially executing annotated program and, for
// every active potential STL, runs two analyses in its comparator banks:
//
//   - the load dependency analysis (§4.2.1, Figure 3): every load
//     retrieves the timestamp of the last store to the same address from
//     the repurposed speculative store buffers; comparing it against the
//     bank's thread-start timestamps classifies the dependency arc into
//     the "previous thread" (t−1) or "earlier thread" (<t−1) bin, and the
//     shortest arc per thread — the critical arc — is accumulated;
//
//   - the speculative state overflow analysis (§4.2.2, Figure 4): every
//     access checks a direct-mapped cache-line timestamp buffer; lines not
//     yet touched by the current thread bump per-thread load/store line
//     counters, and exceeding the Table 1 buffer limits counts an
//     overflow.
//
// Bank allocation follows §5.2: banks are claimed stack-wise as loops are
// entered (outermost first), deeper loops go untraced when no bank or no
// local-variable timestamp space is left, persistently overflowing loops
// release their bank to deeper loops, and loops with enough collected data
// have their annotations disabled.
package core

import (
	"math"

	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// Bins for dependency arcs.
const (
	BinPrev    = 0 // arc to thread t-1
	BinEarlier = 1 // arc to a thread before t-1
)

// PCArcStats is the extended tracer's per-load-PC dependency bin
// (Figure 8b): critical arcs binned by the load instruction PC so a
// compiler or programmer can find the one or two loads that serialize a
// loop (§6.3).
type PCArcStats struct {
	Count  int64
	LenSum int64
	MinLen int64
}

// LoopStats is the software-visible statistics record for one static loop,
// accumulated from its comparator bank at read-statistics time. Field
// names follow the counter table of Figure 3.
type LoopStats struct {
	Loop    int
	Cycles  int64 // elapsed cycles inside the loop
	Threads int64
	Entries int64
	// ArcCount/ArcLenSum are indexed by BinPrev / BinEarlier.
	ArcCount  [2]int64
	ArcLenSum [2]int64
	Overflows int64 // threads that exceeded a speculative buffer limit
	// Capacity high-water marks (diagnostics).
	MaxLdLines int
	MaxStLines int
	// SkippedEntries counts loop entries that ran untraced because no
	// comparator bank (or local timestamp space) was available.
	SkippedEntries int64
	// PCArcs is only filled by the extended tracer.
	PCArcs map[int]*PCArcStats
}

func (s *LoopStats) add(o *LoopStats) {
	s.Cycles += o.Cycles
	s.Threads += o.Threads
	s.Entries += o.Entries
	for b := 0; b < 2; b++ {
		s.ArcCount[b] += o.ArcCount[b]
		s.ArcLenSum[b] += o.ArcLenSum[b]
	}
	s.Overflows += o.Overflows
	if o.MaxLdLines > s.MaxLdLines {
		s.MaxLdLines = o.MaxLdLines
	}
	if o.MaxStLines > s.MaxStLines {
		s.MaxStLines = o.MaxStLines
	}
}

// Options tunes runtime-system policies that the paper describes
// qualitatively.
type Options struct {
	// Extended enables per-load-PC arc binning (Figure 8b).
	Extended bool
	// ThreadQuota disables a loop's tracing after this many threads have
	// been observed ("when sufficient data has been collected ... the
	// annotations marking it can be disabled dynamically"). 0 = never.
	ThreadQuota int64
	// OverflowFree releases a bank whose loop overflows in more than this
	// fraction of threads (checked after MinThreads), freeing it for
	// deeper loops. 0 disables the policy.
	OverflowFree float64
	// MinThreads is the observation floor before OverflowFree applies.
	MinThreads int64
}

// DefaultOptions returns the runtime policies used by the experiments.
func DefaultOptions() Options {
	return Options{
		Extended:     false,
		ThreadQuota:  0,
		OverflowFree: 0.9,
		MinThreads:   64,
	}
}

// lineEntry is one direct-mapped cache-line timestamp slot (§5.3).
type lineEntry struct {
	tag   uint32
	ts    int64
	valid bool
}

// wordsPerLine is the number of per-word store timestamps a FIFO line
// holds.
const wordsPerLine = hydra.LineSize / hydra.WordSize

// storeFIFO models the three store buffers that hold heap store
// timestamps during tracing: a FIFO of cache-line-sized entries holding
// per-word store timestamps, 192 lines deep (6 kB of write history).
//
// As in hardware, the lines form a ring in allocation order; once the
// ring is full a new line overwrites the oldest one. A small
// open-addressed (linear-probing) index maps a line number to its ring
// slot. The ring and the index grow on demand up to the configured
// depth, so a run that touches few lines never pays for all of them. A
// depth <= 0 models a machine without write history: nothing is kept.
type storeFIFO struct {
	cap   int
	ring  []fifoLine
	head  int     // oldest line once the ring is full
	index []int32 // ring slot + 1 per bucket, 0 = empty; len is a power of two
	shift uint    // 32 - log2(len(index))
}

type fifoLine struct {
	line  uint32
	valid uint8 // bit w set: ts[w] holds a store timestamp
	ts    [wordsPerLine]int64
}

// fifoMinIndex is the initial index size; the index is kept at most
// half full, so it is rehashed into twice the buckets as the ring grows.
const fifoMinIndex = 16

func newStoreFIFO(capLines int) *storeFIFO {
	return &storeFIFO{cap: capLines}
}

// bucket is the home bucket of a line: Fibonacci hashing on the line
// number.
func (f *storeFIFO) bucket(line uint32) int {
	return int((line * 0x9e3779b1) >> f.shift)
}

// find returns the ring slot holding line, or -1.
func (f *storeFIFO) find(line uint32) int {
	if len(f.index) == 0 {
		return -1
	}
	mask := len(f.index) - 1
	for i := f.bucket(line); ; i = (i + 1) & mask {
		s := f.index[i]
		if s == 0 {
			return -1
		}
		if f.ring[s-1].line == line {
			return int(s - 1)
		}
	}
}

// insert indexes ring slot s under its line number.
func (f *storeFIFO) insert(s int) {
	mask := len(f.index) - 1
	i := f.bucket(f.ring[s].line)
	for f.index[i] != 0 {
		i = (i + 1) & mask
	}
	f.index[i] = int32(s + 1)
}

// unindex removes line's bucket, shifting later members of its probe
// run back so that lookups never need tombstones.
func (f *storeFIFO) unindex(line uint32) {
	mask := len(f.index) - 1
	i := f.bucket(line)
	for f.ring[f.index[i]-1].line != line {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; f.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill hole i unless its home bucket lies
		// cyclically in (i, j].
		k := f.bucket(f.ring[f.index[j]-1].line)
		if (i < j && i < k && k <= j) || (j < i && (i < k || k <= j)) {
			continue
		}
		f.index[i] = f.index[j]
		i = j
	}
	f.index[i] = 0
}

// grow makes room for one more line: the ring's backing array doubles
// (capped at the FIFO depth) and the index doubles whenever it would
// pass half full.
func (f *storeFIFO) grow() {
	n := len(f.ring)
	if n == cap(f.ring) {
		c := max(2*n, 8)
		if c > f.cap {
			c = f.cap
		}
		ring := make([]fifoLine, n, c)
		copy(ring, f.ring)
		f.ring = ring
	}
	if 2*(n+1) <= len(f.index) {
		return
	}
	size := max(2*len(f.index), fifoMinIndex)
	f.index = make([]int32, size)
	f.shift = 32
	for b := size; b > 1; b >>= 1 {
		f.shift--
	}
	for s := 0; s < n; s++ {
		f.insert(s)
	}
}

func (f *storeFIFO) record(addr uint32, ts int64) {
	line := addr / hydra.LineSize
	word := (addr % hydra.LineSize) / hydra.WordSize
	s := f.find(line)
	if s < 0 {
		switch {
		case f.cap <= 0:
			return
		case len(f.ring) < f.cap:
			f.grow()
			s = len(f.ring)
			f.ring = append(f.ring, fifoLine{line: line})
		default:
			// Full: the new line takes the oldest line's slot.
			s = f.head
			f.unindex(f.ring[s].line)
			f.ring[s] = fifoLine{line: line}
			if f.head++; f.head == f.cap {
				f.head = 0
			}
		}
		f.insert(s)
	}
	e := &f.ring[s]
	e.ts[word] = ts
	e.valid |= 1 << word
}

func (f *storeFIFO) lookup(addr uint32) (int64, bool) {
	word := (addr % hydra.LineSize) / hydra.WordSize
	s := f.find(addr / hydra.LineSize)
	if s < 0 || f.ring[s].valid&(1<<word) == 0 {
		return 0, false
	}
	return f.ring[s].ts[word], true
}

// bank is one comparator bank (Figure 7) bound to a dynamic loop entry.
type bank struct {
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

// noStore marks a local timestamp entry no store has written in the
// current loop entry. It precedes every entry start, so the dependency
// check rejects it like a pre-entry store.
const noStore = math.MinInt64

// localPos returns slot's position in the bank's local timestamp
// entries, or -1 when the bank did not reserve the slot.
func (b *bank) localPos(slot int) int {
	if uint(slot) >= uint(len(b.slotPos)) {
		return -1
	}
	return int(b.slotPos[slot])
}

// loopState is the tracer's per-static-loop bookkeeping, indexed by loop
// id.
type loopState struct {
	stats    *LoopStats    // nil until the loop first reports
	parents  map[int]int64 // this loop's row of parentEdges
	slotPos  []int32       // see bank.slotPos; built on first allocation
	disabled bool          // thread quota reached
	freed    bool          // bank released due to persistent overflow
}

// Tracer is the full TEST hardware model: the comparator bank array plus
// the repurposed store buffers, driven by the VM event stream.
type Tracer struct {
	cfg  hydra.Config
	opts Options
	prog *tir.Program

	heapTS *storeFIFO
	ldLine []lineEntry
	stLine []lineEntry

	stack      []*bank
	pool       []*bank // banks released at eloop, reused by later sloops
	inUseBanks int
	localUsed  int

	loops []loopState
	table map[int]*LoopStats

	// parentEdges records observed dynamic nesting: child loop -> parent
	// loop (-1 at top level) -> entry count. The profile analyzer turns
	// this into the dynamic loop tree that Equation 2 selects over.
	parentEdges map[int]map[int]int64
}

// Compile-time check that Tracer is a VM listener.
var _ vmsim.Listener = (*Tracer)(nil)

// ConsumeEvents implements vmsim.Listener: the VM hands the tracer whole
// event batches — one interface dispatch per batch instead of one per
// event — and the demultiplexing below resolves to direct method calls on
// the concrete Tracer. Events are processed in order, so the
// comparator-bank state evolves exactly as it would under per-event
// delivery. Call-boundary events are skipped: the hardware model watches
// only the annotated stream.
func (t *Tracer) ConsumeEvents(evs []vmsim.Event) {
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

// NewTracer builds a tracer for prog with the given machine config.
func NewTracer(prog *tir.Program, cfg hydra.Config, opts Options) *Tracer {
	return &Tracer{
		cfg:         cfg,
		opts:        opts,
		prog:        prog,
		heapTS:      newStoreFIFO(cfg.Tracer.HeapStoreLines),
		ldLine:      make([]lineEntry, cfg.Tracer.LoadLineTS),
		stLine:      make([]lineEntry, cfg.Tracer.StoreLineTS),
		loops:       make([]loopState, len(prog.Loops)),
		table:       map[int]*LoopStats{},
		parentEdges: map[int]map[int]int64{},
	}
}

// ParentEdges returns the observed dynamic nesting edge counts:
// child loop id -> parent loop id (-1 for top level) -> entries.
func (t *Tracer) ParentEdges() map[int]map[int]int64 { return t.parentEdges }

// Results returns the per-loop statistics table collected so far.
func (t *Tracer) Results() map[int]*LoopStats { return t.table }

func (t *Tracer) loopStats(loop int) *LoopStats {
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
func (t *Tracer) slotPositions(loop int) []int32 {
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
func (t *Tracer) newBank() *bank {
	var b *bank
	if n := len(t.pool); n > 0 {
		b = t.pool[n-1]
		t.pool = t.pool[:n-1]
		*b = bank{localTS: b.localTS[:0]}
	} else {
		b = &bank{}
	}
	return b
}

// LoopStart handles an sloop annotation: allocate a comparator bank if the
// runtime policies allow, otherwise push an inactive placeholder so the
// stack discipline stays aligned with eloop events.
func (t *Tracer) LoopStart(now int64, loop, numLocals int, frame uint64) {
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

func (b *bank) resetThread() {
	b.hasArc[0], b.hasArc[1] = false, false
	b.ldLines, b.stLines = 0, 0
	b.overflowed = false
}

// endThread folds the current thread's critical arcs and overflow flag
// into the entry accumulator, then starts the next thread at time now.
func (b *bank) endThread(now int64, t *Tracer) {
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
func (t *Tracer) LoopIter(now int64, loop int) {
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
func (t *Tracer) LoopEnd(now int64, loop int) {
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
func (t *Tracer) ReadStats(now int64, loop int) {}

// dependency runs the load dependency analysis (§4.2.1) for one load with
// the given last-store timestamp against every active bank.
func (t *Tracer) dependency(now int64, storeTS int64, pc int) {
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
func (t *Tracer) HeapLoad(now int64, addr uint32, pc int) {
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
func (t *Tracer) HeapStore(now int64, addr uint32, pc int) {
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
func (t *Tracer) LocalLoad(now int64, id vmsim.SlotID, pc int) {
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
func (t *Tracer) LocalStore(now int64, id vmsim.SlotID, pc int) {
	for _, b := range t.stack {
		if !b.allocated || b.frame != id.Frame {
			continue
		}
		if p := b.localPos(id.Slot); p >= 0 {
			b.localTS[p] = now
		}
	}
}
