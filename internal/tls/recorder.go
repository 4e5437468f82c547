package tls

import (
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
type Recorder struct {
	Selected []bool // indexed by loop id
	Entries  []*Entry

	prog        *tir.Program
	active      *Entry
	activeLoop  int
	activeFrame uint64
	allowed     []bool // indexed by slot: AnnLocals of the active selected loop
	entryStart  int64
	iterStart   int64
	cur         Iter
	depth       int // nested entries of the same selected loop (recursion)
}

// NewRecorder records traces for the given selected loop ids of prog.
// Ids outside the program's loop table can never be entered and are
// ignored.
func NewRecorder(prog *tir.Program, selected []int) *Recorder {
	sel := make([]bool, len(prog.Loops))
	for _, id := range selected {
		if id >= 0 && id < len(sel) {
			sel[id] = true
		}
	}
	return &Recorder{Selected: sel, prog: prog}
}

var _ vmsim.Listener = (*Recorder)(nil)

// ConsumeEvents implements vmsim.Listener, demultiplexing each event to
// the handler below. Read-stats and call events do not concern the
// recording.
func (r *Recorder) ConsumeEvents(evs []vmsim.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case vmsim.EvHeapLoad:
			r.HeapLoad(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvHeapStore:
			r.HeapStore(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvLocalLoad:
			r.LocalLoad(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLocalStore:
			r.LocalStore(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLoopStart:
			r.LoopStart(ev.Now, int(ev.Loop), int(ev.NumLocals), ev.Frame)
		case vmsim.EvLoopIter:
			r.LoopIter(ev.Now, int(ev.Loop))
		case vmsim.EvLoopEnd:
			r.LoopEnd(ev.Now, int(ev.Loop))
		}
	}
}

// LoopStart opens a recording when a selected loop is entered.
func (r *Recorder) LoopStart(now int64, loop, numLocals int, frame uint64) {
	if r.active != nil {
		if loop == r.activeLoop {
			r.depth++
		}
		return
	}
	if loop < 0 || loop >= len(r.Selected) || !r.Selected[loop] {
		return
	}
	r.active = &Entry{Loop: loop}
	r.activeLoop = loop
	r.activeFrame = frame
	clear(r.allowed)
	for _, slot := range r.prog.Loops[loop].AnnLocals {
		if slot >= len(r.allowed) {
			r.allowed = append(r.allowed, make([]bool, slot+1-len(r.allowed))...)
		}
		r.allowed[slot] = true
	}
	r.entryStart = now
	r.iterStart = now
	r.cur = Iter{}
	r.depth = 0
}

// LoopIter closes the current iteration of the recorded loop.
func (r *Recorder) LoopIter(now int64, loop int) {
	if r.active == nil || loop != r.activeLoop || r.depth > 0 {
		return
	}
	r.cur.Len = now - r.iterStart
	r.active.Iters = append(r.active.Iters, r.cur)
	r.cur = Iter{}
	r.iterStart = now
}

// LoopEnd closes the recording.
func (r *Recorder) LoopEnd(now int64, loop int) {
	if r.active == nil || loop != r.activeLoop {
		return
	}
	if r.depth > 0 {
		r.depth--
		return
	}
	r.cur.Len = now - r.iterStart
	r.active.Iters = append(r.active.Iters, r.cur)
	r.active.SeqCycles = now - r.entryStart
	r.Entries = append(r.Entries, r.active)
	r.active = nil
	r.cur = Iter{}
}

// HeapLoad records a heap read.
func (r *Recorder) HeapLoad(now int64, addr uint32, pc int) {
	if r.active == nil {
		return
	}
	r.cur.Acc = append(r.cur.Acc, Access{Rel: now - r.iterStart, Addr: uint64(addr), Kind: Load, PC: pc})
}

// HeapStore records a heap write.
func (r *Recorder) HeapStore(now int64, addr uint32, pc int) {
	if r.active == nil {
		return
	}
	r.cur.Acc = append(r.cur.Acc, Access{Rel: now - r.iterStart, Addr: uint64(addr), Kind: Store, PC: pc})
}

// slotAddr packs a frame/slot pair into a synthetic address disjoint from
// the 32-bit heap space.
func slotAddr(id vmsim.SlotID) uint64 {
	return 1<<40 | id.Frame<<12 | uint64(id.Slot&0xfff)
}

// tracks reports whether id is one of the active selected loop's
// globalized variables in its own activation frame.
func (r *Recorder) tracks(id vmsim.SlotID) bool {
	return r.active != nil && id.Frame == r.activeFrame &&
		uint(id.Slot) < uint(len(r.allowed)) && r.allowed[id.Slot]
}

// LocalLoad records a synchronized-local read (lwl annotation) of one of
// the selected loop's globalized variables.
func (r *Recorder) LocalLoad(now int64, id vmsim.SlotID, pc int) {
	if r.tracks(id) {
		r.cur.Acc = append(r.cur.Acc, Access{Rel: now - r.iterStart, Addr: slotAddr(id), Kind: LocalLoad, PC: pc})
	}
}

// LocalStore records a synchronized-local write (swl annotation) of one of
// the selected loop's globalized variables.
func (r *Recorder) LocalStore(now int64, id vmsim.SlotID, pc int) {
	if r.tracks(id) {
		r.cur.Acc = append(r.cur.Acc, Access{Rel: now - r.iterStart, Addr: slotAddr(id), Kind: LocalStore, PC: pc})
	}
}
