package vmsim

// Batched event emission: the producer side of the one consumer contract.
//
// Every trace event reaches its listeners as part of an []Event batch
// through Listener.ConsumeEvents. The fast engine appends events to a
// small fixed-capacity buffer through concrete (inlinable) *batchEmitter
// methods and flushes the buffer when it fills and when the run ends: one
// interface dispatch per listener per batch, with the per-kind
// demultiplexing done by each listener on its own concrete type. Call
// boundaries join the batch as EvCallEnter and EvCallExit, so every event
// reaches every listener through this one buffer, in one order.
//
// Batching never reorders events: the buffer is drained in append order,
// which is execution order, so every listener observes the exact sequence
// the reference interpreter would have delivered — including the relative
// order of events that share a cycle timestamp. internal/trace/FORMAT.md
// depends on this.

// EventKind discriminates the variants of Event.
type EventKind uint8

// Event kinds. The first eight are the annotated stream TEST watches
// and the kinds a recorded trace stores; the call kinds mark function
// call boundaries for the method-call-return analysis (internal/mcr).
const (
	EvHeapLoad EventKind = iota
	EvHeapStore
	EvLocalLoad
	EvLocalStore
	EvLoopStart
	EvLoopIter
	EvLoopEnd
	EvReadStats
	EvCallEnter
	EvCallExit
)

// Event is one trace event in a batch. Fields are used per kind: Addr+PC
// for heap events, Frame+Slot+PC for local events, Loop (+NumLocals and
// Frame for LoopStart) for loop events. Call events reuse fields so Event
// stays 40 bytes: Loop holds the callee's function index, PC the call
// instruction and Frame the caller's frame; EvCallEnter is stamped with
// the call instruction's cycle, EvCallExit with the cycle after the
// callee returned.
type Event struct {
	Now       int64
	Frame     uint64
	Addr      uint32
	PC        int32
	Slot      int32
	Loop      int32
	NumLocals int32
	Kind      EventKind
}

// batchCap is the event batch capacity. Large enough to amortize the
// per-batch interface dispatch, small enough to stay in L1.
const batchCap = 256

// batchEmitter buffers events for the fast engine. All methods are on
// the concrete type, so calls from the interpreter loop are direct (and
// the append paths inline); no interface dispatch happens until flush.
type batchEmitter struct {
	n         int
	listeners []Listener
	buf       [batchCap]Event
}

// newBatchEmitter returns nil when there are no listeners, which is the
// emitter's "statically off" state: the interpreter guards every emission
// site with a nil check, so untraced runs pay one predictable branch and
// nothing else.
func newBatchEmitter(listeners []Listener) *batchEmitter {
	if len(listeners) == 0 {
		return nil
	}
	return &batchEmitter{listeners: listeners}
}

// flush hands the batch to every listener in listener order.
func (em *batchEmitter) flush() {
	if em.n == 0 {
		return
	}
	evs := em.buf[:em.n]
	for _, l := range em.listeners {
		l.ConsumeEvents(evs)
	}
	em.n = 0
}

func (em *batchEmitter) slot() *Event {
	if em.n == batchCap {
		em.flush()
	}
	ev := &em.buf[em.n]
	em.n++
	return ev
}

func (em *batchEmitter) heapLoad(now int64, addr uint32, pc int32) {
	ev := em.slot()
	*ev = Event{Kind: EvHeapLoad, Now: now, Addr: addr, PC: pc}
}

func (em *batchEmitter) heapStore(now int64, addr uint32, pc int32) {
	ev := em.slot()
	*ev = Event{Kind: EvHeapStore, Now: now, Addr: addr, PC: pc}
}

func (em *batchEmitter) localLoad(now int64, frame uint64, slot, pc int32) {
	ev := em.slot()
	*ev = Event{Kind: EvLocalLoad, Now: now, Frame: frame, Slot: slot, PC: pc}
}

func (em *batchEmitter) localStore(now int64, frame uint64, slot, pc int32) {
	ev := em.slot()
	*ev = Event{Kind: EvLocalStore, Now: now, Frame: frame, Slot: slot, PC: pc}
}

func (em *batchEmitter) loopStart(now int64, loop, numLocals int32, frame uint64) {
	ev := em.slot()
	*ev = Event{Kind: EvLoopStart, Now: now, Loop: loop, NumLocals: numLocals, Frame: frame}
}

func (em *batchEmitter) loopIter(now int64, loop int32) {
	ev := em.slot()
	*ev = Event{Kind: EvLoopIter, Now: now, Loop: loop}
}

func (em *batchEmitter) loopEnd(now int64, loop int32) {
	ev := em.slot()
	*ev = Event{Kind: EvLoopEnd, Now: now, Loop: loop}
}

func (em *batchEmitter) readStats(now int64, loop int32) {
	ev := em.slot()
	*ev = Event{Kind: EvReadStats, Now: now, Loop: loop}
}

func (em *batchEmitter) callEnter(now int64, fn, pc int32, frame uint64) {
	ev := em.slot()
	*ev = Event{Kind: EvCallEnter, Now: now, Loop: fn, PC: pc, Frame: frame}
}

func (em *batchEmitter) callExit(now int64, fn, pc int32, frame uint64) {
	ev := em.slot()
	*ev = Event{Kind: EvCallExit, Now: now, Loop: fn, PC: pc, Frame: frame}
}
