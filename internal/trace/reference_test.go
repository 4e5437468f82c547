package trace

// refReader is the per-field decoder that ReadEvents' one-loop decode
// replaced: decode, pc, loop, uvarint and svarint, driven record by
// record, each field read through a call that returns an error and
// stores the delta state back into the Reader. It is kept as the oracle
// that TestReaderMatchesReference and FuzzReader hold ReadEvents
// against. It shares the Reader's window, header and refill (NewReader's
// 64 KiB buffer, or the whole recording in place) and nothing else.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"jrpm/internal/vmsim"
)

type refReader struct{ *Reader }

// decoded is everything one decode of a recording shows its caller.
type decoded struct {
	Events []vmsim.Event // every event decoded, in order
	N      int           // events returned together with Err
	Err    error         // the error that ended the stream (io.EOF after a trailer)
	Sum    Summary
	SumOK  bool
}

// decodeAll decodes data in batches of batch events with ReadEvents or,
// when ref is set, with refReader: in place when stream is nil, else
// through NewReader's window fed by stream(data). numLoops bounds loop
// ids as Reader.NumLoops does.
func decodeAll(data []byte, numLoops, batch int, ref bool, stream func(io.Reader) io.Reader) decoded {
	var r *Reader
	var err error
	if stream != nil {
		r, err = NewReader(stream(bytes.NewReader(data)))
	} else {
		r, err = NewBytesReader(data)
	}
	if err != nil {
		return decoded{Err: err}
	}
	r.NumLoops = numLoops
	var dec interface {
		ReadEvents([]vmsim.Event) (int, error)
	} = r
	if ref {
		dec = &refReader{r}
	}
	var d decoded
	buf := make([]vmsim.Event, batch)
	for d.Err == nil {
		d.N, d.Err = dec.ReadEvents(buf)
		d.Events = append(d.Events, buf[:d.N]...)
	}
	d.Sum, d.SumOK = r.Summary()
	if d.SumOK != errors.Is(d.Err, io.EOF) {
		d.Err = fmt.Errorf("summary ok=%v at %v", d.SumOK, d.Err)
	}
	return d
}

// ReadEvents is ReadEvents as it was before the one-loop decode.
func (r *refReader) ReadEvents(evs []vmsim.Event) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for i := range evs {
		if len(r.buf)-r.pos < maxRecordLen && !r.eof {
			if err := r.fill(); err != nil {
				r.err = err
				return i, err
			}
		}
		if err := r.decode(&evs[i]); err != nil {
			r.err = err
			return i, err
		}
	}
	return len(evs), nil
}

// uvarint decodes one varint from the window.
func (r *refReader) uvarint() (uint64, error) {
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 {
		u := uint64(r.buf[r.pos])
		r.pos++
		return u, nil
	}
	u, n := binary.Uvarint(r.buf[r.pos:])
	switch {
	case n > 0:
		r.pos += n
		return u, nil
	case n == 0:
		// The window holds a whole record unless the stream ended.
		return 0, io.ErrUnexpectedEOF
	}
	return 0, fmt.Errorf("%w: varint overflows a 64-bit integer", ErrCorrupt)
}

// svarint decodes one zigzag-encoded signed delta.
func (r *refReader) svarint() (int64, error) {
	u, err := r.uvarint()
	return unzigzag(u), err
}

// decode decodes the next record into ev.
func (r *refReader) decode(ev *vmsim.Event) error {
	if r.pos == len(r.buf) {
		// No trailer: the recording was cut off.
		return io.ErrUnexpectedEOF
	}
	kind := Kind(r.buf[r.pos])
	r.pos++
	if kind == KindSummary {
		if err := r.readSummary(); err != nil {
			return err
		}
		return io.EOF
	}
	if kind < KindHeapLoad || kind > KindReadStats {
		return fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}

	dt, err := r.uvarint()
	if err != nil {
		return err
	}
	if dt >= maxTime || r.prevTime >= maxTime-int64(dt) {
		return fmt.Errorf("%w: time delta out of range", ErrCorrupt)
	}
	r.prevTime += int64(dt)
	*ev = vmsim.Event{Kind: vmsim.EventKind(kind - KindHeapLoad), Now: r.prevTime}

	switch kind {
	case KindHeapLoad, KindHeapStore:
		ad, err := r.svarint()
		if err != nil {
			return err
		}
		addr := int64(r.prevAddr) + ad
		if addr < 0 || addr > 0xffffffff {
			return fmt.Errorf("%w: address out of range", ErrCorrupt)
		}
		r.prevAddr = uint32(addr)
		ev.Addr = r.prevAddr
		if err := r.pc(ev); err != nil {
			return err
		}
	case KindLocalLoad, KindLocalStore:
		fd, err := r.svarint()
		if err != nil {
			return err
		}
		r.prevFrame += uint64(fd)
		ev.Frame = r.prevFrame
		slot, err := r.uvarint()
		if err != nil {
			return err
		}
		if slot >= maxSlot {
			return fmt.Errorf("%w: slot out of range", ErrCorrupt)
		}
		ev.Slot = int32(slot)
		if err := r.pc(ev); err != nil {
			return err
		}
	case KindLoopStart:
		if err := r.loop(ev); err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n >= maxNumLocals {
			return fmt.Errorf("%w: numLocals out of range", ErrCorrupt)
		}
		ev.NumLocals = int32(n)
		fd, err := r.svarint()
		if err != nil {
			return err
		}
		r.prevFrame += uint64(fd)
		ev.Frame = r.prevFrame
	default: // loop-iter, loop-end, read-stats
		if err := r.loop(ev); err != nil {
			return err
		}
	}
	r.records++
	return nil
}

func (r *refReader) pc(ev *vmsim.Event) error {
	pd, err := r.svarint()
	if err != nil {
		return err
	}
	pc := r.prevPC + pd
	if pc < 0 || pc >= maxPC {
		return fmt.Errorf("%w: pc out of range", ErrCorrupt)
	}
	r.prevPC = pc
	ev.PC = int32(pc)
	return nil
}

func (r *refReader) loop(ev *vmsim.Event) error {
	u, err := r.uvarint()
	if err != nil {
		return err
	}
	limit := uint64(maxLoopID)
	if r.NumLoops > 0 {
		limit = uint64(r.NumLoops)
	}
	if u >= limit {
		return fmt.Errorf("%w: loop id %d out of range", ErrCorrupt, u)
	}
	ev.Loop = int32(u)
	return nil
}

// readSummary is the trailer reader as it was, on the reference's own
// uvarint.
func (r *refReader) readSummary() error {
	fields := [...]*int64{
		&r.sum.CleanCycles, &r.sum.TracedCycles,
		&r.sum.HeapLoads, &r.sum.HeapStores,
		&r.sum.LocalAnnots, &r.sum.LoopAnnots,
		&r.sum.ReadStats, &r.sum.Annotations,
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n != r.records {
		return fmt.Errorf("%w: trailer records %d, decoded %d", ErrCorrupt, n, r.records)
	}
	r.sum.Records = n
	for _, f := range fields {
		u, err := r.uvarint()
		if err != nil {
			return err
		}
		if u >= maxTime {
			return fmt.Errorf("%w: summary counter out of range", ErrCorrupt)
		}
		*f = int64(u)
	}
	// Nothing may follow the trailer.
	if r.pos == len(r.buf) {
		if err := r.fill(); err != nil {
			return err
		}
	}
	if r.pos < len(r.buf) {
		return fmt.Errorf("%w: trailing data after summary", ErrCorrupt)
	}
	return nil
}
