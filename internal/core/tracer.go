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
//
// One model (a Group) serves every machine config that shares a store
// geometry up to the store FIFO depth: the line caches and the banks'
// state are kept once, the FIFO and the banks' critical-arc state once
// per depth, and each config (a Tracer) keeps only its own bank
// allocation, policy state and statistics. A live profile runs a group
// of one.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"jrpm/internal/freelist"
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

// adopt gives an empty FIFO the ring and index of an earlier one, so it
// grows only past their sizes. How large the index is changes no
// lookup's answer.
func (f *storeFIFO) adopt(ring []fifoLine, index []int32) {
	f.ring = ring[:0]
	if len(index) > 0 {
		clear(index)
		f.setIndex(index)
	}
}

// setIndex installs an empty index, its length a power of two.
func (f *storeFIFO) setIndex(index []int32) {
	f.index = index
	f.shift = 32
	for b := len(index); b > 1; b >>= 1 {
		f.shift--
	}
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
	f.setIndex(make([]int32, max(2*len(f.index), fifoMinIndex)))
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

// GroupSize is the most configs one Group serves: a bank's config mask
// is one machine word.
const GroupSize = 64

// MaxTableLines bounds each store table of a config: the store FIFO
// depth and both line timestamp caches.
const MaxTableLines = 1 << 20

// MaxGridTableLines bounds the store-table lines of all the groups one
// sweep grid builds together. With MaxTableLines it keeps a grid taken
// from the network from making the model allocate without limit.
const MaxGridTableLines = 1 << 22

// Geometry is the part of a machine config that the model's store
// tables depend on: the store FIFO, the two line timestamp caches and
// the speculative buffer limits behind a thread's overflow flag. Groups
// cuts a grid by whole geometry. One Group may serve configs whose
// geometries differ only in HeapStoreLines (equal ModelKey): the FIFO
// feeds nothing but the critical arcs, so the group keeps one FIFO and
// one set of arc state per depth and shares the rest.
type Geometry struct {
	HeapStoreLines, LoadLineTS, StoreLineTS int
	LoadLines, StoreLines                   int
}

// ModelKey returns g without its store FIFO depth: configs whose
// geometries have equal keys can share one Group.
func (g Geometry) ModelKey() Geometry {
	g.HeapStoreLines = 0
	return g
}

// GeometryOf returns cfg's store geometry.
func GeometryOf(cfg hydra.Config) Geometry {
	return Geometry{
		HeapStoreLines: cfg.Tracer.HeapStoreLines,
		LoadLineTS:     cfg.Tracer.LoadLineTS,
		StoreLineTS:    cfg.Tracer.StoreLineTS,
		LoadLines:      cfg.Buffers.LoadLines,
		StoreLines:     cfg.Buffers.StoreLines,
	}
}

// tableLines is the number of store-table lines a group of geometry g
// may hold.
func (g Geometry) tableLines() int {
	return max(g.HeapStoreLines, 0) + max(g.LoadLineTS, 0) + max(g.StoreLineTS, 0)
}

// GeometryError reports store tables over their bound.
type GeometryError struct {
	Field        string
	Lines, Bound int
}

func (e *GeometryError) Error() string {
	return fmt.Sprintf("core: %s = %d exceeds the %d-line bound", e.Field, e.Lines, e.Bound)
}

// CheckGeometry returns a *GeometryError when one of cfg's store tables
// exceeds MaxTableLines. Sizes <= 0 pass: they are not an allocation
// hazard.
func CheckGeometry(cfg hydra.Config) error {
	t := cfg.Tracer
	switch {
	case t.HeapStoreLines > MaxTableLines:
		return &GeometryError{"HeapStoreLines", t.HeapStoreLines, MaxTableLines}
	case t.LoadLineTS > MaxTableLines:
		return &GeometryError{"LoadLineTS", t.LoadLineTS, MaxTableLines}
	case t.StoreLineTS > MaxTableLines:
		return &GeometryError{"StoreLineTS", t.StoreLineTS, MaxTableLines}
	}
	return nil
}

// CheckGrid returns a *GeometryError when one of cfgs fails
// CheckGeometry, or when the Groups of cfgs would hold more than
// MaxGridTableLines store-table lines between them.
func CheckGrid(cfgs []hydra.Config) error {
	for _, cfg := range cfgs {
		if err := CheckGeometry(cfg); err != nil {
			return err
		}
	}
	total := 0
	for _, g := range Groups(cfgs) {
		if total += GeometryOf(cfgs[g[0]]).tableLines(); total > MaxGridTableLines {
			return &GeometryError{"the grid's store tables", total, MaxGridTableLines}
		}
	}
	return nil
}

// Groups cuts cfgs into the groups a sweep deals to its workers and
// returns each group's config indices: the configs of one store
// geometry, in order, cut every GroupSize, with the geometries in order
// of first appearance. Splitting a geometry further would only multiply
// trace decodes and model passes. A sweep worker may fuse its groups
// that differ only in FIFO depth into one model (see ModelKey).
func Groups(cfgs []hydra.Config) [][]int {
	var order []Geometry
	byGeo := map[Geometry][]int{}
	for i, cfg := range cfgs {
		g := GeometryOf(cfg)
		if _, ok := byGeo[g]; !ok {
			order = append(order, g)
		}
		byGeo[g] = append(byGeo[g], i)
	}
	var groups [][]int
	for _, g := range order {
		idx := byGeo[g]
		for len(idx) > GroupSize {
			groups = append(groups, idx[:GroupSize:GroupSize])
			idx = idx[GroupSize:]
		}
		groups = append(groups, idx)
	}
	return groups
}

// arcState is a bank's critical-arc state for one store FIFO depth: the
// current thread's shortest arc per bin, and the entry's arc counts and
// length sums (LoopStats.ArcCount/ArcLenSum).
type arcState struct {
	has   [2]bool
	min   [2]int64
	pc    [2]int
	count [2]int64
	sum   [2]int64
}

// note offers the current thread an arc of bin.
func (a *arcState) note(bin int, arc int64, pc int) {
	if !a.has[bin] || arc < a.min[bin] {
		a.has[bin] = true
		a.min[bin] = arc
		a.pc[bin] = pc
	}
}

// bank is one comparator bank (Figure 7) bound to a dynamic loop entry.
// Its state depends only on the events and on the group's store tables,
// so one bank serves every config of the group that allocated the
// entry; only its critical-arc state is kept once per FIFO depth.
type bank struct {
	loopID    int
	frame     uint64
	numLocals int
	mask      uint64 // bit i: config i allocated this entry; 0 = untraced placeholder

	entryStart int64
	tsCur      int64 // thread start timestamp (t)
	tsPrev     int64 // thread start timestamp (t-1)
	threadIdx  int64 // threads started in this entry (current = threadIdx+1)

	// Critical-arc state: arcs for the group's first FIFO depth,
	// extra[d-1] for depth d.
	arcs  arcState
	extra []arcState

	// Per-thread overflow state.
	ldLines    int
	stLines    int
	overflowed bool

	// Per-entry accumulation, folded into each allocating config's loop
	// table at eloop. Its arc fields stay zero: the arc sums are kept per
	// depth.
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

// arcsAt returns the bank's critical-arc state for FIFO depth d.
func (b *bank) arcsAt(d int) *arcState {
	if d == 0 {
		return &b.arcs
	}
	return &b.extra[d-1]
}

// loopRow is a group's per-static-loop bookkeeping, indexed by loop id.
type loopRow struct {
	parents map[int]int64 // this loop's row of parentEdges
	slotPos []int32       // see bank.slotPos; built on first allocation
}

// loopState is one config's per-static-loop bookkeeping, indexed by
// loop id.
type loopState struct {
	stats    *LoopStats // nil until the loop first reports
	disabled bool       // thread quota reached
	freed    bool       // bank released due to persistent overflow
}

// Group is the full TEST hardware model — the comparator bank array
// plus the repurposed store buffers, driven by the VM event stream —
// shared by up to GroupSize machine configs whose store geometries have
// one ModelKey.
//
// The line caches depend only on the geometry, and a bank's state only
// on the events and the store tables, so the group keeps one of each.
// The store FIFO feeds only the load dependency analysis, so the group
// keeps one FIFO per distinct depth and each bank one critical-arc
// state per depth; allocation and the runtime policies never read arcs.
// What differs per config is which dynamic loop entries get a bank
// (Banks, LocalSlots and the runtime policies): each bank carries a mask
// of the configs that allocated it, and each config (a Tracer) folds
// the banks it owns, with its depth's arcs, into its own statistics
// table. Every config therefore ends with exactly the tables a model of
// its own would have built, for one pass over the events.
type Group struct {
	prog *tir.Program
	geo  Geometry // the first config's; only the depth differs between configs

	heapTS storeFIFO    // the first depth's FIFO
	extra  []extraDepth // the FIFOs of depths 1..; nil in a one-depth group
	ldLine []lineEntry
	stLine []lineEntry

	stack []*bank
	pool  []*bank // banks released at eloop, reused by later sloops

	loopRows []loopRow

	// parentEdges records observed dynamic nesting: child loop -> parent
	// loop (-1 at top level) -> entry count. The profile analyzer turns
	// this into the dynamic loop tree that Equation 2 selects over. It
	// does not depend on bank allocation, so every config shares it.
	parentEdges map[int]map[int]int64

	cfgs     []Tracer
	extended uint64 // mask of the first depth's configs with Options.Extended

	scratch *tables // where Release returns the run-time tables
}

// extraDepth is one store FIFO depth of a group past the first.
type extraDepth struct {
	fifo     storeFIFO
	extended uint64 // mask of this depth's configs with Options.Extended
}

// tables is a group's run-time scratch: each store FIFO's ring and
// index, both line caches and the idle banks. No statistic is read from
// it after the run, so Release hands it to the next group.
type tables struct {
	fifo           fifoTables   // the first depth's
	extra          []fifoTables // depth d's at extra[d-1]
	ldLine, stLine []lineEntry
	banks          []*bank
}

// fifoTables is a store FIFO's ring and index.
type fifoTables struct {
	ring  []fifoLine
	index []int32
}

// idleTables holds the tables of released groups.
var idleTables freelist.List[tables]

// keepTableLines bounds each table an idle tables keeps, in entries, and
// keepBanks the banks; a table grown past it by an unusual geometry is
// left to the collector. The default geometry uses 192, 512 and 64
// entries.
const (
	keepTableLines = 1 << 12
	keepBanks      = 64
)

// lineTable returns n empty line-cache entries, in buf when it is large
// enough.
func lineTable(buf []lineEntry, n int) []lineEntry {
	if cap(buf) < n {
		return make([]lineEntry, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Release hands the group's run-time tables — every store FIFO, the
// line caches and the idle banks — to the next group built. The
// statistics tables and nesting edges (Results, ParentEdges) stay valid,
// so the profile analysis may run after it; the group must consume no
// events afterwards. Safe to repeat.
func (g *Group) Release() {
	sc := g.scratch
	if sc == nil {
		return
	}
	keep := func(n int) bool { return n <= keepTableLines }
	keepFIFO := func(f *storeFIFO) fifoTables {
		if keep(cap(f.ring)) && keep(len(f.index)) {
			return fifoTables{f.ring, f.index}
		}
		return fifoTables{}
	}
	// Depths this group did not use keep the tables an earlier group left.
	sc.fifo = keepFIFO(&g.heapTS)
	for d := range g.extra {
		t := keepFIFO(&g.extra[d].fifo)
		if d < len(sc.extra) {
			sc.extra[d] = t
		} else {
			sc.extra = append(sc.extra, t)
		}
	}
	sc.ldLine, sc.stLine = nil, nil
	if keep(cap(g.ldLine)) {
		sc.ldLine = g.ldLine
	}
	if keep(cap(g.stLine)) {
		sc.stLine = g.stLine
	}
	sc.banks = append(g.pool, g.stack...)
	if len(sc.banks) > keepBanks {
		clear(sc.banks[keepBanks:])
		sc.banks = sc.banks[:keepBanks]
	}
	g.scratch, g.heapTS, g.extra, g.ldLine, g.stLine, g.pool, g.stack = nil, storeFIFO{}, nil, nil, nil, nil, nil
	idleTables.Put(sc)
}

// Tracer is one machine config's view of a Group: its bank and local
// timestamp budget, its runtime-policy state and its statistics table.
// The embedded Group takes the events, so a lone Tracer (NewTracer) is
// fed directly, as a VM listener. Feeding any view of a larger group
// advances every config of that group: such views are only read.
type Tracer struct {
	*Group
	cfg   hydra.Config
	opts  Options
	depth int // the index of the config's store FIFO depth in the group

	inUseBanks int
	localUsed  int

	loops []loopState
	table map[int]*LoopStats
}

// Compile-time check that Tracer is a VM listener.
var _ vmsim.Listener = (*Tracer)(nil)

// ConsumeEvents implements vmsim.Listener: the VM hands the model whole
// event batches — one interface dispatch per batch instead of one per
// event — and the demultiplexing below resolves to direct method calls on
// the concrete Group. Events are processed in order, so the
// comparator-bank state evolves exactly as it would under per-event
// delivery. Call-boundary events are skipped: the hardware model watches
// only the annotated stream.
func (g *Group) ConsumeEvents(evs []vmsim.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case vmsim.EvHeapLoad:
			g.HeapLoad(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvHeapStore:
			g.HeapStore(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvLocalLoad:
			g.LocalLoad(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLocalStore:
			g.LocalStore(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLoopStart:
			g.LoopStart(ev.Now, int(ev.Loop), int(ev.NumLocals), ev.Frame)
		case vmsim.EvLoopIter:
			g.LoopIter(ev.Now, int(ev.Loop))
		case vmsim.EvLoopEnd:
			g.LoopEnd(ev.Now, int(ev.Loop))
		case vmsim.EvReadStats:
			g.ReadStats(ev.Now, int(ev.Loop))
		}
	}
}

// NewGroup builds one model for prog serving cfgs, with opts[i] the
// runtime policies of cfgs[i]. It returns an error unless there are
// 1..GroupSize configs, one Options each, whose geometries pass
// CheckGeometry and share one ModelKey. The group keeps one store FIFO
// per distinct HeapStoreLines (sizes <= 0 are one depth: no history).
func NewGroup(prog *tir.Program, cfgs []hydra.Config, opts []Options) (*Group, error) {
	if len(cfgs) == 0 || len(cfgs) > GroupSize || len(opts) != len(cfgs) {
		return nil, fmt.Errorf("core: a group needs 1..%d configs with one Options each, got %d and %d", GroupSize, len(cfgs), len(opts))
	}
	geo := GeometryOf(cfgs[0])
	for _, cfg := range cfgs {
		if err := CheckGeometry(cfg); err != nil {
			return nil, err
		}
		if GeometryOf(cfg).ModelKey() != geo.ModelKey() {
			return nil, errors.New("core: the configs of a group differ in store geometry beyond the FIFO depth")
		}
	}
	sc := idleTables.Get()
	g := &Group{
		prog:        prog,
		geo:         geo,
		heapTS:      storeFIFO{cap: max(geo.HeapStoreLines, 0)},
		ldLine:      lineTable(sc.ldLine, geo.LoadLineTS),
		stLine:      lineTable(sc.stLine, geo.StoreLineTS),
		pool:        sc.banks,
		loopRows:    make([]loopRow, len(prog.Loops)),
		parentEdges: map[int]map[int]int64{},
		cfgs:        make([]Tracer, len(cfgs)),
		scratch:     sc,
	}
	g.heapTS.adopt(sc.fifo.ring, sc.fifo.index)
	nl := len(prog.Loops)
	states := make([]loopState, len(cfgs)*nl)
	for i, cfg := range cfgs {
		d := g.depthOf(cfg.Tracer.HeapStoreLines)
		if opts[i].Extended {
			if d == 0 {
				g.extended |= 1 << i
			} else {
				g.extra[d-1].extended |= 1 << i
			}
		}
		g.cfgs[i] = Tracer{
			Group: g,
			cfg:   cfg,
			opts:  opts[i],
			depth: d,
			loops: states[i*nl : (i+1)*nl : (i+1)*nl],
			table: map[int]*LoopStats{},
		}
	}
	return g, nil
}

// depthOf returns the index of the store FIFO of the given depth,
// adding one (with an idle ring and index, if any) for a new depth.
func (g *Group) depthOf(lines int) int {
	lines = max(lines, 0)
	if lines == g.heapTS.cap {
		return 0
	}
	for d := range g.extra {
		if g.extra[d].fifo.cap == lines {
			return d + 1
		}
	}
	g.extra = append(g.extra, extraDepth{fifo: storeFIFO{cap: lines}})
	d := len(g.extra)
	if sc := g.scratch; d <= len(sc.extra) {
		g.extra[d-1].fifo.adopt(sc.extra[d-1].ring, sc.extra[d-1].index)
	}
	return d
}

// NewTracer builds a model for prog with one machine config: a group of
// one. It panics where NewGroup returns an error.
func NewTracer(prog *tir.Program, cfg hydra.Config, opts Options) *Tracer {
	g, err := NewGroup(prog, []hydra.Config{cfg}, []Options{opts})
	if err != nil {
		panic(err)
	}
	return g.Tracer(0)
}

// Tracer returns the view of the group's i-th config.
func (g *Group) Tracer(i int) *Tracer { return &g.cfgs[i] }

// ParentEdges returns the observed dynamic nesting edge counts:
// child loop id -> parent loop id (-1 for top level) -> entries.
func (g *Group) ParentEdges() map[int]map[int]int64 { return g.parentEdges }

// Results returns the config's per-loop statistics table collected so
// far.
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
func (g *Group) slotPositions(loop int) []int32 {
	row := &g.loopRows[loop]
	if row.slotPos == nil {
		ann := g.prog.Loops[loop].AnnLocals
		n := 0
		for _, s := range ann {
			n = max(n, s+1)
		}
		pos := make([]int32, n)
		for i := range pos {
			pos[i] = -1
		}
		for i, s := range ann {
			if pos[s] < 0 {
				pos[s] = int32(i)
			}
		}
		row.slotPos = pos
	}
	return row.slotPos
}

// newBank takes a bank from the pool (or allocates one) and resets it
// for a new loop entry, keeping its local timestamp and arc storage.
func (g *Group) newBank() *bank {
	var b *bank
	if n := len(g.pool); n > 0 {
		b = g.pool[n-1]
		g.pool = g.pool[:n-1]
		*b = bank{localTS: b.localTS[:0], extra: b.extra[:0]}
	} else {
		b = &bank{}
	}
	return b
}

// LoopStart handles an sloop annotation: each config allocates the
// entry a comparator bank if its runtime policies allow. The bank is
// pushed either way — with an empty mask, an inactive placeholder — so
// the stack discipline stays aligned with eloop events.
func (g *Group) LoopStart(now int64, loop, numLocals int, frame uint64) {
	parent := -1
	if len(g.stack) > 0 {
		parent = g.stack[len(g.stack)-1].loopID
	}
	row := &g.loopRows[loop]
	if row.parents == nil {
		row.parents = map[int]int64{}
		g.parentEdges[loop] = row.parents
	}
	row.parents[parent]++

	b := g.newBank()
	b.loopID, b.frame, b.numLocals = loop, frame, numLocals
	for i := range g.cfgs {
		t := &g.cfgs[i]
		ls := &t.loops[loop]
		switch {
		case ls.disabled || ls.freed:
			// Annotations for this loop are logically nop'd out.
		case t.inUseBanks >= t.cfg.Tracer.Banks,
			t.localUsed+numLocals > t.cfg.Tracer.LocalSlots:
			t.loopStats(loop).SkippedEntries++
		default:
			b.mask |= 1 << i
			t.inUseBanks++
			t.localUsed += numLocals
		}
	}
	if b.mask != 0 {
		b.entryStart = now
		b.tsCur = now
		if n := len(g.extra); n > 0 {
			b.extra = slices.Grow(b.extra, n)[:n]
			clear(b.extra)
		}
		b.slotPos = g.slotPositions(loop)
		for range g.prog.Loops[loop].AnnLocals {
			b.localTS = append(b.localTS, noStore)
		}
	}
	g.stack = append(g.stack, b)
}

// endThread folds the current thread's critical arcs (at every depth)
// and overflow flag into the entry accumulators, then starts the next
// thread at time now.
func (b *bank) endThread(now int64, g *Group) {
	b.endArcs(&b.arcs, g.extended, g)
	for d := range b.extra {
		b.endArcs(&b.extra[d], g.extra[d].extended, g)
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
	b.ldLines, b.stLines = 0, 0
	b.overflowed = false
}

// endArcs folds one depth's critical arcs of the current thread into
// its entry sums, bins them by load PC for ext (that depth's extended
// configs) and clears them for the next thread.
func (b *bank) endArcs(a *arcState, ext uint64, g *Group) {
	for bin := 0; bin < 2; bin++ {
		if a.has[bin] {
			a.count[bin]++
			a.sum[bin] += a.min[bin]
			for m := b.mask & ext; m != 0; m &= m - 1 {
				g.cfgs[bits.TrailingZeros64(m)].pcArc(b.loopID, a.pc[bin], a.min[bin])
			}
		}
	}
	a.has = [2]bool{}
}

// pcArc bins one thread's critical arc by its load PC (extended tracer).
func (t *Tracer) pcArc(loop, pc int, arc int64) {
	s := t.loopStats(loop)
	pa := s.PCArcs[pc]
	if pa == nil {
		pa = &PCArcStats{MinLen: arc}
		s.PCArcs[pc] = pa
	}
	pa.Count++
	pa.LenSum += arc
	if arc < pa.MinLen {
		pa.MinLen = arc
	}
}

// LoopIter handles an eoi annotation: shift the thread start timestamps of
// the matching bank.
func (g *Group) LoopIter(now int64, loop int) {
	for i := len(g.stack) - 1; i >= 0; i-- {
		if g.stack[i].loopID == loop {
			if g.stack[i].mask != 0 {
				g.stack[i].endThread(now, g)
			}
			return
		}
	}
}

// LoopEnd handles an eloop annotation: finish the final thread, fold the
// entry's counters into the loop table of every config that allocated
// the bank, free the bank, and apply each config's runtime policies
// (overflow release, thread quota).
func (g *Group) LoopEnd(now int64, loop int) {
	n := len(g.stack) - 1
	if n < 0 {
		return
	}
	b := g.stack[n]
	g.stack = g.stack[:n]
	if b.loopID != loop {
		// Mismatched nesting should be impossible with well-formed
		// annotations; scan down defensively.
		for i := n - 1; i >= 0; i-- {
			if g.stack[i].loopID == loop {
				g.pool = append(g.pool, b)
				b = g.stack[i]
				g.stack = append(g.stack[:i], g.stack[i+1:]...)
				break
			}
		}
	}
	g.pool = append(g.pool, b)
	if b.mask == 0 {
		return
	}
	b.endThread(now, g)
	b.acc.Threads = b.threadIdx
	b.acc.Entries = 1
	b.acc.Cycles = now - b.entryStart
	for m := b.mask; m != 0; m &= m - 1 {
		g.cfgs[bits.TrailingZeros64(m)].endEntry(loop, b)
	}
}

// endEntry folds a finished entry of loop, with the arcs of the
// config's depth, into the config's table, returns its bank and local
// timestamp space, and applies the config's runtime policies.
func (t *Tracer) endEntry(loop int, b *bank) {
	s := t.loopStats(loop)
	s.add(&b.acc)
	a := b.arcsAt(t.depth)
	for bin := 0; bin < 2; bin++ {
		s.ArcCount[bin] += a.count[bin]
		s.ArcLenSum[bin] += a.sum[bin]
	}
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
func (g *Group) ReadStats(now int64, loop int) {}

// dependency runs the load dependency analysis (§4.2.1) for one load with
// the given last-store timestamp, found in FIFO depth d, against every
// active bank's arcs of that depth.
func (g *Group) dependency(now int64, storeTS int64, pc, d int) {
	for _, b := range g.stack {
		if b.mask == 0 {
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
		b.arcsAt(d).note(bin, now-storeTS, pc)
	}
}

// HeapLoad implements the automatic tracing of lw instructions: the load
// dependency analysis, once per FIFO depth, plus the load-line half of
// the overflow analysis.
func (g *Group) HeapLoad(now int64, addr uint32, pc int) {
	if ts, ok := g.heapTS.lookup(addr); ok {
		g.dependency(now, ts, pc, 0)
	}
	for d := range g.extra {
		if ts, ok := g.extra[d].fifo.lookup(addr); ok {
			g.dependency(now, ts, pc, d+1)
		}
	}
	// Overflow analysis, load geometry: index bits 13:5, tag bits 31:14.
	idx := (addr / hydra.LineSize) % uint32(len(g.ldLine))
	tag := addr >> 14
	e := &g.ldLine[idx]
	for _, b := range g.stack {
		if b.mask == 0 {
			continue
		}
		if !(e.valid && e.tag == tag && e.ts >= b.tsCur) {
			b.ldLines++
			if b.ldLines > g.geo.LoadLines {
				b.overflowed = true
			}
		}
	}
	e.valid, e.tag, e.ts = true, tag, now
}

// HeapStore implements the automatic tracing of sw instructions: record
// the store timestamp in every FIFO for later loads plus the store-line
// half of the overflow analysis.
func (g *Group) HeapStore(now int64, addr uint32, pc int) {
	g.heapTS.record(addr, now)
	for d := range g.extra {
		g.extra[d].fifo.record(addr, now)
	}
	// Overflow analysis, store geometry: index bits 10:5, tag bits 31:11.
	idx := (addr / hydra.LineSize) % uint32(len(g.stLine))
	tag := addr >> 11
	e := &g.stLine[idx]
	for _, b := range g.stack {
		if b.mask == 0 {
			continue
		}
		if !(e.valid && e.tag == tag && e.ts >= b.tsCur) {
			b.stLines++
			if b.stLines > g.geo.StoreLines {
				b.overflowed = true
			}
		}
	}
	e.valid, e.tag, e.ts = true, tag, now
}

// LocalLoad handles an lwl annotation: local variables take part in the
// dependency analysis (they carry loop-borne scalar dependencies) but not
// in the overflow analysis (they live in registers, not buffers). Each
// bank consults its own reserved timestamp entry for the variable; the
// arc is the same at every FIFO depth.
func (g *Group) LocalLoad(now int64, id vmsim.SlotID, pc int) {
	for _, b := range g.stack {
		if b.mask == 0 || b.frame != id.Frame {
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
		b.arcs.note(bin, arc, pc)
		for d := range b.extra {
			b.extra[d].note(bin, arc, pc)
		}
	}
}

// LocalStore handles an swl annotation: every active bank that reserved
// the variable records its own store timestamp.
func (g *Group) LocalStore(now int64, id vmsim.SlotID, pc int) {
	for _, b := range g.stack {
		if b.mask == 0 || b.frame != id.Frame {
			continue
		}
		if p := b.localPos(id.Slot); p >= 0 {
			b.localTS[p] = now
		}
	}
}
