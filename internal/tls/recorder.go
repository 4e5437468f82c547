package tls

import (
	"slices"

	"jrpm/internal/freelist"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// Recorder is a VM listener that captures per-iteration memory traces for
// a set of selected loops, feeding the TLS timing simulation. The selected
// set is exclusive (no loop is an ancestor or descendant of another), so
// at most one recording is active at a time; if a selected loop is entered
// while another recording is active (possible only through a rare
// secondary dynamic parent), its events simply fold into the active
// recording, matching the hardware's one-decomposition-at-a-time rule.
//
// Local-variable events are filtered to the selected loop's own globalized
// variables (its AnnLocals, in its activation frame): those are the
// variables the recompiler synchronizes for this decomposition. Events
// from nested loops' annotations describe other decompositions — their
// variables are private or inductive for the selected loop — and callee
// locals live in per-call frames; both must not serialize the simulated
// threads.
//
// Accesses and iterations are carved out of two chunked arenas, so a
// recording allocates per arena chunk rather than per iteration: each
// closed iteration's Acc and each closed entry's Iters is a
// capacity-clipped window of a chunk. Release hands the chunks, and the
// recorder, to the next NewRecorder, so a caller that releases its
// recorders allocates chunks only while its recordings outgrow the
// kept ones.
type Recorder struct {
	Selected []bool // indexed by loop id
	Entries  []*Entry

	prog        *tir.Program
	active      *Entry
	activeLoop  int32
	activeFrame uint64
	allowed     []bool // indexed by slot: AnnLocals of the active selected loop
	entryStart  int64
	iterStart   int64
	depth       int // nested entries of the same selected loop (recursion)

	acc   arena[Access] // open window: the current iteration's accesses
	iters arena[Iter]   // open window: the active entry's closed iterations
}

// recorders holds released recorders for NewRecorder.
var recorders freelist.List[Recorder]

// NewRecorder records traces for the given selected loop ids of prog.
// Ids outside the program's loop table can never be entered and are
// ignored. The recorder may be a released one, reused.
func NewRecorder(prog *tir.Program, selected []int) *Recorder {
	r := recorders.Get()
	r.init(prog, selected)
	return r
}

// init readies an empty recorder for prog's selected loops.
func (r *Recorder) init(prog *tir.Program, selected []int) {
	r.prog = prog
	n := len(prog.Loops)
	r.Selected = slices.Grow(r.Selected[:0], n)[:n]
	clear(r.Selected)
	for _, id := range selected {
		if id >= 0 && id < len(r.Selected) {
			r.Selected[id] = true
		}
	}
}

// Release returns the recorder and its arena chunks for reuse by a later
// NewRecorder. Entries, and every Iters and Acc window they hold, are
// invalid afterwards, and r must not be used again.
func (r *Recorder) Release() {
	r.reset()
	recorders.Put(r)
}

// reset empties the recorder, keeping its buffers: the arenas' chunks
// move to their free lists, up to a bound.
func (r *Recorder) reset() {
	clear(r.Entries)
	r.Entries = r.Entries[:0]
	r.prog, r.active = nil, nil
	r.acc.reset()
	r.iters.reset()
}

var _ vmsim.Listener = (*Recorder)(nil)

// ConsumeEvents implements vmsim.Listener. Loop events of the recorded
// loop open and close iterations and the recording; heap events and the
// recorded loop's synchronized-local events (lwl/swl annotations) become
// accesses of the open iteration. Read-stats and call events do not
// concern the recording.
func (r *Recorder) ConsumeEvents(evs []vmsim.Event) {
	for i := range evs {
		ev := &evs[i]
		var kind AccessKind
		addr := uint64(ev.Addr)
		switch ev.Kind {
		case vmsim.EvHeapLoad:
			kind = Load
		case vmsim.EvHeapStore:
			kind = Store
		case vmsim.EvLocalLoad, vmsim.EvLocalStore:
			if !r.tracks(ev.Frame, ev.Slot) {
				continue
			}
			kind = LocalLoad
			if ev.Kind == vmsim.EvLocalStore {
				kind = LocalStore
			}
			addr = slotAddr(ev.Frame, ev.Slot)
		case vmsim.EvLoopStart:
			if r.active != nil {
				if ev.Loop == r.activeLoop {
					r.depth++
				}
				continue
			}
			if ev.Loop < 0 || int(ev.Loop) >= len(r.Selected) || !r.Selected[ev.Loop] {
				continue
			}
			r.active = &Entry{Loop: int(ev.Loop)}
			r.activeLoop = ev.Loop
			r.activeFrame = ev.Frame
			clear(r.allowed)
			for _, slot := range r.prog.Loops[ev.Loop].AnnLocals {
				if slot >= len(r.allowed) {
					r.allowed = append(r.allowed, make([]bool, slot+1-len(r.allowed))...)
				}
				r.allowed[slot] = true
			}
			r.entryStart = ev.Now
			r.iterStart = ev.Now
			r.depth = 0
			continue
		case vmsim.EvLoopIter:
			if r.active != nil && ev.Loop == r.activeLoop && r.depth == 0 {
				r.closeIter(ev.Now)
			}
			continue
		case vmsim.EvLoopEnd:
			if r.active == nil || ev.Loop != r.activeLoop {
				continue
			}
			if r.depth > 0 {
				r.depth--
				continue
			}
			r.closeIter(ev.Now)
			r.active.Iters = r.iters.take()
			r.active.SeqCycles = ev.Now - r.entryStart
			r.Entries = append(r.Entries, r.active)
			r.active = nil
			continue
		default:
			continue
		}
		if r.active != nil {
			r.acc.push(Access{Rel: ev.Now - r.iterStart, Addr: addr, Kind: kind, PC: ev.PC})
		}
	}
}

// closeIter ends the open iteration of the recorded loop at cycle now.
func (r *Recorder) closeIter(now int64) {
	r.iters.push(Iter{Len: now - r.iterStart, Acc: r.acc.take()})
	r.iterStart = now
}

// slotAddr packs a frame/slot pair into a synthetic address disjoint from
// the 32-bit heap space.
func slotAddr(frame uint64, slot int32) uint64 {
	return 1<<40 | frame<<12 | uint64(slot&0xfff)
}

// tracks reports whether frame/slot is one of the active selected loop's
// globalized variables in its own activation frame.
func (r *Recorder) tracks(frame uint64, slot int32) bool {
	return r.active != nil && frame == r.activeFrame &&
		uint(slot) < uint(len(r.allowed)) && r.allowed[slot]
}

// Arena chunk sizes, in elements: chunks double from the minimum up to
// the maximum, so a small recording stays small and a large one
// allocates once per maximum-size chunk. A reset arena keeps at most
// arenaKeep elements' worth of chunks, none larger than the maximum.
const (
	arenaMinChunk = 1 << 10
	arenaMaxChunk = 1 << 14
	arenaKeep     = 8 * arenaMaxChunk
)

// arena is an append-only buffer that hands out stable windows: push
// appends to the open window and take closes it. When the chunk fills,
// only the open window is copied into a fresh chunk, so a window once
// taken never moves and no later push can reach it. Chunks come from
// the free list when one is large enough.
type arena[T any] struct {
	buf  []T
	lo   int   // start of the open window in buf
	full [][]T // earlier chunks, still referenced by taken windows
	free [][]T // empty chunks that reset kept for reuse

	// fullInline backs full for a recording's first 16 chunks, so a
	// fresh recorder allocates per chunk only: letting append grow full
	// adds one allocation each time the chunk count doubles.
	fullInline [16][]T
}

func (a *arena[T]) push(v T) {
	if len(a.buf) == cap(a.buf) {
		a.refill()
	}
	a.buf = append(a.buf, v)
}

// refill moves the open window into a chunk with room for at least as
// many more elements.
func (a *arena[T]) refill() {
	open := a.buf[a.lo:]
	var buf []T
	for i, c := range a.free {
		if cap(c) >= 2*len(open) {
			buf = c[:len(open)]
			a.free = slices.Delete(a.free, i, i+1)
			break
		}
	}
	if buf == nil {
		n := min(max(2*cap(a.buf), arenaMinChunk), arenaMaxChunk)
		buf = make([]T, len(open), max(n, 2*len(open)))
	}
	copy(buf, open)
	if cap(a.buf) > 0 {
		if a.full == nil {
			a.full = a.fullInline[:0]
		}
		a.full = append(a.full, a.buf)
	}
	a.buf, a.lo = buf, 0
}

// take closes the open window and returns it clipped to its length, or
// nil when it is empty.
func (a *arena[T]) take() []T {
	if a.lo == len(a.buf) {
		return nil
	}
	w := a.buf[a.lo:len(a.buf):len(a.buf)]
	a.lo = len(a.buf)
	return w
}

// reset invalidates every window and moves the chunks to the free list,
// cleared, dropping oversized ones and any past arenaKeep elements.
func (a *arena[T]) reset() {
	kept := 0
	for _, c := range a.free {
		kept += cap(c)
	}
	for _, c := range append(a.full, a.buf) {
		if cap(c) == 0 || cap(c) > arenaMaxChunk || kept+cap(c) > arenaKeep {
			continue
		}
		clear(c)
		a.free = append(a.free, c[:0])
		kept += cap(c)
	}
	clear(a.full)
	a.full, a.buf, a.lo = a.full[:0], nil, 0
}
