package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"jrpm/internal/freelist"
	"jrpm/internal/vmsim"
)

// Writer serializes a VM event stream. It is a vmsim.Listener: attach it
// to the traced run alongside the live core.Tracer and both observe the
// identical event sequence — which is what makes replay equivalent to
// live profiling by construction rather than by testing alone.
//
// Records are appended to a 64 KiB staging buffer, taken from a free list
// and written to the destination whenever it cannot hold one more record
// and at Finish, which gives the buffer back. A trace that fits in the
// buffer therefore reaches the destination in one Write.
//
// ConsumeEvents cannot return errors, so the first I/O failure is
// latched and every later record becomes a no-op; Finish (or Err)
// surfaces it. A Writer is single-goroutine, like the VM that drives it.
type Writer struct {
	dst io.Writer
	st  *staging // nil once finished
	err error

	prevTime  int64
	prevAddr  uint32
	prevPC    int
	prevFrame uint64

	records  uint64
	finished bool
}

// staging is a Writer's record buffer, reused by later writers.
type staging struct{ b []byte }

// stagings holds idle staging buffers.
var stagings freelist.List[staging]

// stagingSize is the staging buffer's capacity. Before each record the
// buffer is flushed if fewer than maxRecordLen bytes are free.
const stagingSize = 64 << 10

var _ vmsim.Listener = (*Writer)(nil)

// ConsumeEvents implements vmsim.Listener: the writer serializes each
// batch in order. Record layouts do not depend on how the stream was
// batched (FORMAT.md), and call-boundary events are skipped — the format
// has no record for them, so trace bytes are those of the annotated
// stream alone.
func (w *Writer) ConsumeEvents(evs []vmsim.Event) {
	if w.err != nil || w.finished {
		return
	}
	b := w.st.b
	for i := range evs {
		ev := &evs[i]
		if cap(b)-len(b) < maxRecordLen {
			w.st.b = b
			if w.flush(); w.err != nil {
				return
			}
			b = w.st.b
		}
		switch ev.Kind {
		case vmsim.EvHeapLoad:
			b = w.appendHeap(b, KindHeapLoad, ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvHeapStore:
			b = w.appendHeap(b, KindHeapStore, ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvLocalLoad:
			b = w.appendLocal(b, KindLocalLoad, ev.Now, ev.Frame, int(ev.Slot), int(ev.PC))
		case vmsim.EvLocalStore:
			b = w.appendLocal(b, KindLocalStore, ev.Now, ev.Frame, int(ev.Slot), int(ev.PC))
		case vmsim.EvLoopStart:
			b = w.appendLoopStart(b, ev.Now, int(ev.Loop), int(ev.NumLocals), ev.Frame)
		case vmsim.EvLoopIter:
			b = w.appendLoopMark(b, KindLoopIter, ev.Now, int(ev.Loop))
		case vmsim.EvLoopEnd:
			b = w.appendLoopMark(b, KindLoopEnd, ev.Now, int(ev.Loop))
		case vmsim.EvReadStats:
			b = w.appendLoopMark(b, KindReadStats, ev.Now, int(ev.Loop))
		}
	}
	w.st.b = b
}

// NewWriter opens a trace on w for a program with the given structural
// hash (see ProgramHash) and stages the header.
func NewWriter(w io.Writer, progHash [32]byte) (*Writer, error) {
	st := stagings.Get()
	if st.b == nil {
		st.b = make([]byte, 0, stagingSize)
	}
	st.b = append(st.b[:0], Magic[:]...)
	st.b = append(st.b, Version)
	st.b = append(st.b, progHash[:]...)
	return &Writer{dst: w, st: st}, nil
}

// Err returns the first error encountered while writing records.
func (w *Writer) Err() error { return w.err }

// Records returns the number of event records written so far.
func (w *Writer) Records() uint64 { return w.records }

// Finish writes the summary trailer, flushes and releases the staging
// buffer. sum.Records is filled in by the writer. Finish must be called
// exactly once, after the traced run completes.
func (w *Writer) Finish(sum Summary) error {
	if w.err != nil {
		w.release()
		return w.err
	}
	if w.finished {
		return fmt.Errorf("trace: Finish called twice")
	}
	sum.Records = w.records
	if cap(w.st.b)-len(w.st.b) < maxRecordLen {
		w.flush()
	}
	if w.err == nil {
		b := append(w.st.b, byte(KindSummary))
		b = binary.AppendUvarint(b, sum.Records)
		b = binary.AppendUvarint(b, uint64(sum.CleanCycles))
		b = binary.AppendUvarint(b, uint64(sum.TracedCycles))
		b = binary.AppendUvarint(b, uint64(sum.HeapLoads))
		b = binary.AppendUvarint(b, uint64(sum.HeapStores))
		b = binary.AppendUvarint(b, uint64(sum.LocalAnnots))
		b = binary.AppendUvarint(b, uint64(sum.LoopAnnots))
		b = binary.AppendUvarint(b, uint64(sum.ReadStats))
		b = binary.AppendUvarint(b, uint64(sum.Annotations))
		w.st.b = b
		w.flush()
	}
	w.finished = true
	w.release()
	return w.err
}

// flush writes the staged bytes to the destination, latching an error.
func (w *Writer) flush() {
	if _, err := w.dst.Write(w.st.b); err != nil {
		w.err = err
	}
	w.st.b = w.st.b[:0]
}

// release gives the staging buffer back to the free list.
func (w *Writer) release() {
	if w.st != nil {
		stagings.Put(w.st)
		w.st = nil
	}
}

// appendHead appends a record's kind tag and time delta and counts the
// record. The append methods below each add one record kind's payload;
// b must have room for a whole record (maxRecordLen bytes).
func (w *Writer) appendHead(b []byte, kind Kind, now int64) []byte {
	b = append(b, byte(kind))
	b = binary.AppendUvarint(b, uint64(now-w.prevTime))
	w.prevTime = now
	w.records++
	return b
}

func (w *Writer) appendHeap(b []byte, kind Kind, now int64, addr uint32, pc int) []byte {
	b = w.appendHead(b, kind, now)
	b = binary.AppendUvarint(b, zigzag(int64(addr)-int64(w.prevAddr)))
	b = binary.AppendUvarint(b, zigzag(int64(pc-w.prevPC)))
	w.prevAddr, w.prevPC = addr, pc
	return b
}

func (w *Writer) appendLocal(b []byte, kind Kind, now int64, frame uint64, slot, pc int) []byte {
	b = w.appendHead(b, kind, now)
	b = binary.AppendUvarint(b, zigzag(int64(frame-w.prevFrame)))
	b = binary.AppendUvarint(b, uint64(slot))
	b = binary.AppendUvarint(b, zigzag(int64(pc-w.prevPC)))
	w.prevFrame, w.prevPC = frame, pc
	return b
}

func (w *Writer) appendLoopStart(b []byte, now int64, loop, numLocals int, frame uint64) []byte {
	b = w.appendHead(b, KindLoopStart, now)
	b = binary.AppendUvarint(b, uint64(loop))
	b = binary.AppendUvarint(b, uint64(numLocals))
	b = binary.AppendUvarint(b, zigzag(int64(frame-w.prevFrame)))
	w.prevFrame = frame
	return b
}

func (w *Writer) appendLoopMark(b []byte, kind Kind, now int64, loop int) []byte {
	b = w.appendHead(b, kind, now)
	return binary.AppendUvarint(b, uint64(loop))
}
