package vmsim

// Batched event emission: the producer side of the one consumer contract.
//
// Every trace event reaches its listeners as part of an []Event batch
// through Listener.ConsumeEvents. The fast engine writes each event in
// place into a small fixed-capacity buffer (`*em.slot() = Event{...}` at
// the emission site; slot inlines, so an emission is a few stores and no
// call) and flushes the buffer when it fills and when the run ends: one
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

import "jrpm/internal/freelist"

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

// batchEmitter buffers events for the fast engine. The interpreter loop
// fills slots directly; the only call an emission can make is flush, once
// per batchCap events, and no interface dispatch happens until then.
type batchEmitter struct {
	n         int
	listeners []Listener
	buf       [batchCap]Event
}

// emitters holds idle batch emitters, so a run reuses an earlier run's
// 10 KiB buffer.
var emitters freelist.List[batchEmitter]

// newBatchEmitter returns nil when there are no listeners, which is the
// emitter's "statically off" state: the interpreter guards every emission
// site with a nil check, so untraced runs pay one predictable branch and
// nothing else.
func newBatchEmitter(listeners []Listener) *batchEmitter {
	if len(listeners) == 0 {
		return nil
	}
	em := emitters.Get()
	em.listeners = listeners
	return em
}

// release drains the pending events and gives the emitter back to the
// free list; em must not be used afterwards.
func (em *batchEmitter) release() {
	em.flush()
	em.listeners = nil
	emitters.Put(em)
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

// slot returns the next free event in the batch, flushing a full batch
// first. It must stay within the inlining budget: every emission site in
// the interpreter loop calls it, and a real call there spills the loop's
// register-resident state.
func (em *batchEmitter) slot() *Event {
	if em.n == batchCap {
		em.flush()
	}
	ev := &em.buf[em.n]
	em.n++
	return ev
}
