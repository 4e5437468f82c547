package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"jrpm/internal/vmsim"
)

// Decode errors. Any malformed input yields one of these (or an I/O
// error) — never a panic: every field is bounds-checked against the
// format caps before use, and a stream that ends before its summary
// trailer reports io.ErrUnexpectedEOF.
var (
	ErrBadMagic     = errors.New("trace: bad magic (not a jrpm trace)")
	ErrBadVersion   = errors.New("trace: unsupported format version")
	ErrCorrupt      = errors.New("trace: corrupt record")
	ErrHashMismatch = errors.New("trace: program hash mismatch (trace was recorded from a different program)")
)

// Reader streams events back out of a recorded trace. Decoding is strict:
// record fields are validated against the format caps (and, when NumLoops
// is set, against the program's loop table) so a corrupt or adversarial
// byte stream errors out instead of panicking or allocating unboundedly —
// the Reader itself performs no per-record allocation at all.
//
// One decoder serves every caller. It works on a byte window: the whole
// recording for NewBytesReader, a refilled 64 KiB buffer for NewReader.
// ReadEvents decodes records in batches of vmsim.Events; Next and Replay
// are built on it.
type Reader struct {
	src io.Reader // nil for in-memory input
	buf []byte    // decode window; buf[pos:] is not yet decoded
	pos int
	eof bool // src is exhausted: buf[pos:] is all that is left
	hdr Header

	// NumLoops, when > 0, bounds loop ids to the replay target's loop
	// table; out-of-range ids fail decoding instead of indexing panics
	// inside a listener.
	NumLoops int

	prevTime  int64
	prevAddr  uint32
	prevPC    int64
	prevFrame uint64

	records uint64
	sum     Summary
	err     error // sticky: io.EOF after the trailer, or the decode error
}

// maxRecordLen bounds one encoded record: a kind byte and at most nine
// varints (the summary trailer). The window is refilled whenever fewer
// bytes than this remain, so a record never straddles a refill.
const maxRecordLen = 1 + 9*binary.MaxVarintLen64

// headerLen is the fixed header size: magic, version, program hash.
const headerLen = len(Magic) + 1 + 32

// NewReader parses the header from r and decodes the rest of the stream
// from it through a buffer. Callers that hold the recording in memory
// should use NewBytesReader, which decodes in place.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{src: r, buf: make([]byte, 0, 1<<16)}
	if err := tr.fill(); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if err := tr.header(); err != nil {
		return nil, err
	}
	return tr, nil
}

// NewBytesReader parses the header of an in-memory recording; events are
// decoded straight from data, which must not change while the Reader is
// in use.
func NewBytesReader(data []byte) (*Reader, error) {
	tr := &Reader{buf: data, eof: true}
	if err := tr.header(); err != nil {
		return nil, err
	}
	return tr, nil
}

// header parses the fixed header from the start of the window.
func (r *Reader) header() error {
	b := r.buf
	switch {
	case len(b) < len(Magic):
		return fmt.Errorf("trace: reading magic: %w", io.ErrUnexpectedEOF)
	case [4]byte(b[:4]) != Magic:
		return ErrBadMagic
	case len(b) < len(Magic)+1:
		return fmt.Errorf("trace: reading version: %w", io.ErrUnexpectedEOF)
	case b[4] != Version:
		return fmt.Errorf("%w: %d (reader supports %d)", ErrBadVersion, b[4], Version)
	case len(b) < headerLen:
		return fmt.Errorf("trace: reading program hash: %w", io.ErrUnexpectedEOF)
	}
	r.hdr.Version = b[4]
	copy(r.hdr.ProgramHash[:], b[5:headerLen])
	r.pos = headerLen
	return nil
}

// fill tops the window up to at least maxRecordLen undecoded bytes, or
// to whatever the source has left.
func (r *Reader) fill() error {
	if r.eof {
		return nil
	}
	n := copy(r.buf[:cap(r.buf)], r.buf[r.pos:])
	r.buf, r.pos = r.buf[:n], 0
	for empty := 0; len(r.buf) < maxRecordLen; {
		m, err := r.src.Read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+m]
		switch {
		case errors.Is(err, io.EOF):
			r.eof = true
			return nil
		case err != nil:
			return err
		case m == 0:
			if empty++; empty == 100 {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// Header returns the parsed trace header.
func (r *Reader) Header() Header { return r.hdr }

// Summary returns the trailer totals; ok is false until the summary
// record has been reached (Next returned io.EOF or Replay succeeded).
func (r *Reader) Summary() (Summary, bool) { return r.sum, r.err == io.EOF }

// uvarint decodes one varint from the window.
func (r *Reader) uvarint() (uint64, error) {
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
func (r *Reader) svarint() (int64, error) {
	u, err := r.uvarint()
	return unzigzag(u), err
}

// ReadEvents decodes up to len(evs) records into evs and returns how
// many it decoded. It returns io.EOF once the summary trailer has been
// consumed (Summary then reports the totals), and any decode error
// together with the events before the bad record. Both are sticky: every
// later call returns them again.
func (r *Reader) ReadEvents(evs []vmsim.Event) (int, error) {
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

// decode decodes the next record into ev.
func (r *Reader) decode(ev *vmsim.Event) error {
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

func (r *Reader) pc(ev *vmsim.Event) error {
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

func (r *Reader) loop(ev *vmsim.Event) error {
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

func (r *Reader) readSummary() error {
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

// Next decodes the next event record. It returns io.EOF after the
// summary trailer has been consumed (Summary then reports the totals);
// a stream that ends anywhere else is reported as corrupt or truncated.
func (r *Reader) Next() (Event, error) {
	var one [1]vmsim.Event
	if _, err := r.ReadEvents(one[:]); err != nil {
		return Event{}, err
	}
	return eventOf(&one[0]), nil
}

// eventOf converts a decoded batch event to its record form.
func eventOf(ev *vmsim.Event) Event {
	return Event{
		Kind:      Kind(ev.Kind) + KindHeapLoad,
		Time:      ev.Now,
		Addr:      ev.Addr,
		PC:        int(ev.PC),
		Frame:     ev.Frame,
		Slot:      int(ev.Slot),
		Loop:      int(ev.Loop),
		NumLocals: int(ev.NumLocals),
	}
}

// decodeBatch is the number of events Replay and Sweep decode per step:
// enough to amortize the per-batch dispatch, few enough (20 KiB) that a
// batch stays cache-resident while every consumer processes it.
const decodeBatch = 512

// Replay streams every event into the listeners (in order, like the VM
// would) and returns the trace summary. The listeners see exactly the
// sequence the recorded run produced: a vmsim.BatchConsumer receives it
// through ConsumeEvents, any other listener through vmsim.Deliver.
func (r *Reader) Replay(listeners ...vmsim.Listener) (Summary, error) {
	evs := make([]vmsim.Event, decodeBatch)
	for {
		n, err := r.ReadEvents(evs)
		for _, l := range listeners {
			if bc, ok := l.(vmsim.BatchConsumer); ok {
				bc.ConsumeEvents(evs[:n])
				continue
			}
			for i := range evs[:n] {
				vmsim.Deliver(l, &evs[i])
			}
		}
		switch {
		case err == io.EOF:
			return r.sum, nil
		case err != nil:
			return Summary{}, err
		}
	}
}
