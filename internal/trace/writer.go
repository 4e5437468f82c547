package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"jrpm/internal/vmsim"
)

// Writer serializes a VM event stream. It is a vmsim.Listener: attach it
// to the traced run alongside the live core.Tracer and both observe the
// identical event sequence — which is what makes replay equivalent to
// live profiling by construction rather than by testing alone.
//
// ConsumeEvents cannot return errors, so the first I/O failure is
// latched and every later record becomes a no-op; Finish (or Err)
// surfaces it. A Writer is single-goroutine, like the VM that drives it.
type Writer struct {
	bw  *bufio.Writer
	err error

	prevTime  int64
	prevAddr  uint32
	prevPC    int
	prevFrame uint64

	records  uint64
	finished bool

	scratch [2 + 4*binary.MaxVarintLen64]byte
}

var _ vmsim.Listener = (*Writer)(nil)

// ConsumeEvents implements vmsim.Listener: the writer serializes each
// batch in order. Record layouts do not depend on how the stream was
// batched (FORMAT.md), and call-boundary events are skipped — the format
// has no record for them, so trace bytes are those of the annotated
// stream alone.
func (w *Writer) ConsumeEvents(evs []vmsim.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case vmsim.EvHeapLoad:
			w.HeapLoad(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvHeapStore:
			w.HeapStore(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvLocalLoad:
			w.LocalLoad(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLocalStore:
			w.LocalStore(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLoopStart:
			w.LoopStart(ev.Now, int(ev.Loop), int(ev.NumLocals), ev.Frame)
		case vmsim.EvLoopIter:
			w.LoopIter(ev.Now, int(ev.Loop))
		case vmsim.EvLoopEnd:
			w.LoopEnd(ev.Now, int(ev.Loop))
		case vmsim.EvReadStats:
			w.ReadStats(ev.Now, int(ev.Loop))
		}
	}
}

// NewWriter opens a trace on w for a program with the given structural
// hash (see ProgramHash) and writes the header.
func NewWriter(w io.Writer, progHash [32]byte) (*Writer, error) {
	tw := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	if _, err := tw.bw.Write(Magic[:]); err != nil {
		return nil, err
	}
	if err := tw.bw.WriteByte(Version); err != nil {
		return nil, err
	}
	if _, err := tw.bw.Write(progHash[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Err returns the first error encountered while writing records.
func (w *Writer) Err() error { return w.err }

// Records returns the number of event records written so far.
func (w *Writer) Records() uint64 { return w.records }

// Finish writes the summary trailer and flushes. sum.Records is filled in
// by the writer. Finish must be called exactly once, after the traced run
// completes.
func (w *Writer) Finish(sum Summary) error {
	if w.err != nil {
		return w.err
	}
	if w.finished {
		return fmt.Errorf("trace: Finish called twice")
	}
	w.finished = true
	sum.Records = w.records
	buf := w.scratch[:0]
	buf = append(buf, byte(KindSummary))
	buf = binary.AppendUvarint(buf, sum.Records)
	buf = binary.AppendUvarint(buf, uint64(sum.CleanCycles))
	buf = binary.AppendUvarint(buf, uint64(sum.TracedCycles))
	buf = binary.AppendUvarint(buf, uint64(sum.HeapLoads))
	buf = binary.AppendUvarint(buf, uint64(sum.HeapStores))
	buf = binary.AppendUvarint(buf, uint64(sum.LocalAnnots))
	buf = binary.AppendUvarint(buf, uint64(sum.LoopAnnots))
	buf = binary.AppendUvarint(buf, uint64(sum.ReadStats))
	buf = binary.AppendUvarint(buf, uint64(sum.Annotations))
	if _, err := w.bw.Write(buf); err != nil {
		w.err = err
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// emit writes one record: the kind tag, the time delta, then the payload
// values (alternating raw uvarints and zigzag deltas per record layout).
func (w *Writer) emit(kind Kind, now int64, fields ...uint64) {
	if w.err != nil || w.finished {
		return
	}
	buf := w.scratch[:0]
	buf = append(buf, byte(kind))
	buf = binary.AppendUvarint(buf, uint64(now-w.prevTime))
	w.prevTime = now
	for _, f := range fields {
		buf = binary.AppendUvarint(buf, f)
	}
	if _, err := w.bw.Write(buf); err != nil {
		w.err = err
		return
	}
	w.records++
}

// HeapLoad records an lw event.
func (w *Writer) HeapLoad(now int64, addr uint32, pc int) {
	w.emit(KindHeapLoad, now, zigzag(int64(addr)-int64(w.prevAddr)), zigzag(int64(pc-w.prevPC)))
	w.prevAddr, w.prevPC = addr, pc
}

// HeapStore records an sw event.
func (w *Writer) HeapStore(now int64, addr uint32, pc int) {
	w.emit(KindHeapStore, now, zigzag(int64(addr)-int64(w.prevAddr)), zigzag(int64(pc-w.prevPC)))
	w.prevAddr, w.prevPC = addr, pc
}

// LocalLoad records an lwl event.
func (w *Writer) LocalLoad(now int64, id vmsim.SlotID, pc int) {
	w.emit(KindLocalLoad, now, zigzag(int64(id.Frame-w.prevFrame)), uint64(id.Slot), zigzag(int64(pc-w.prevPC)))
	w.prevFrame, w.prevPC = id.Frame, pc
}

// LocalStore records an swl event.
func (w *Writer) LocalStore(now int64, id vmsim.SlotID, pc int) {
	w.emit(KindLocalStore, now, zigzag(int64(id.Frame-w.prevFrame)), uint64(id.Slot), zigzag(int64(pc-w.prevPC)))
	w.prevFrame, w.prevPC = id.Frame, pc
}

// LoopStart records an sloop event.
func (w *Writer) LoopStart(now int64, loop, numLocals int, frame uint64) {
	w.emit(KindLoopStart, now, uint64(loop), uint64(numLocals), zigzag(int64(frame-w.prevFrame)))
	w.prevFrame = frame
}

// LoopIter records an eoi event.
func (w *Writer) LoopIter(now int64, loop int) {
	w.emit(KindLoopIter, now, uint64(loop))
}

// LoopEnd records an eloop event.
func (w *Writer) LoopEnd(now int64, loop int) {
	w.emit(KindLoopEnd, now, uint64(loop))
}

// ReadStats records a read-statistics event.
func (w *Writer) ReadStats(now int64, loop int) {
	w.emit(KindReadStats, now, uint64(loop))
}
