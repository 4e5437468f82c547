package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"jrpm/internal/freelist"
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
// One decode loop serves every caller: ReadEvents, over a byte window
// (the whole recording for NewBytesReader, a refilled 64 KiB buffer for
// NewReader) with the delta state in locals for the batch and a branch
// per record kind. Replay and Sweep are built on it.
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
// record has been reached (ReadEvents returned io.EOF or Replay
// succeeded).
func (r *Reader) Summary() (Summary, bool) { return r.sum, r.err == io.EOF }

// ReadEvents decodes up to len(evs) records into evs and returns how
// many it decoded. It returns io.EOF once the summary trailer has been
// consumed (Summary then reports the totals), and any decode error
// together with the events before the bad record. Both are sticky: every
// later call returns them again.
func (r *Reader) ReadEvents(evs []vmsim.Event) (n int, err error) {
	if r.err != nil {
		return 0, r.err
	}
	buf, pos, records := r.buf, r.pos, r.records
	now, addr, pc, frame := r.prevTime, r.prevAddr, r.prevPC, r.prevFrame
	loops := uint64(maxLoopID)
	if r.NumLoops > 0 {
		loops = uint64(r.NumLoops)
	}
decode:
	for ; n < len(evs); n++ {
		if len(buf)-pos < maxRecordLen && !r.eof {
			r.pos = pos
			err = r.fill()
			if buf, pos = r.buf, r.pos; err != nil {
				break
			}
		}
		if pos == len(buf) {
			// No trailer: the recording was cut off.
			err = io.ErrUnexpectedEOF
			break
		}
		kind := Kind(buf[pos])
		pos++
		if kind == KindSummary {
			r.pos, r.records = pos, records
			err = r.readSummary()
			pos = r.pos
			break
		}
		if kind < KindHeapLoad || kind > KindReadStats {
			err = fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
			break
		}

		var dt uint64
		if pos < len(buf) && buf[pos] < 0x80 {
			dt, pos = uint64(buf[pos]), pos+1
		} else if dt, pos, err = varint(buf, pos); err != nil {
			break
		}
		if dt >= maxTime || now >= maxTime-int64(dt) {
			err = fmt.Errorf("%w: time delta out of range", ErrCorrupt)
			break
		}
		now += int64(dt)
		ek := vmsim.EventKind(kind - KindHeapLoad)

		var u uint64
		switch kind {
		case KindHeapLoad, KindHeapStore:
			if pos < len(buf) && buf[pos] < 0x80 {
				u, pos = uint64(buf[pos]), pos+1
			} else if v, next, ok := uvarint4(buf, pos); ok {
				u, pos = v, next
			} else if u, pos, err = varint(buf, pos); err != nil {
				break decode
			}
			a := int64(addr) + unzigzag(u)
			if a < 0 || a > 0xffffffff {
				err = fmt.Errorf("%w: address out of range", ErrCorrupt)
				break decode
			}
			addr = uint32(a)
			evs[n] = vmsim.Event{Kind: ek, Now: now, Addr: addr}
		case KindLocalLoad, KindLocalStore:
			if pos < len(buf) && buf[pos] < 0x80 {
				u, pos = uint64(buf[pos]), pos+1
			} else if u, pos, err = varint(buf, pos); err != nil {
				break decode
			}
			frame += uint64(unzigzag(u))
			if pos < len(buf) && buf[pos] < 0x80 {
				u, pos = uint64(buf[pos]), pos+1
			} else if u, pos, err = varint(buf, pos); err != nil {
				break decode
			}
			if u >= maxSlot {
				err = fmt.Errorf("%w: slot out of range", ErrCorrupt)
				break decode
			}
			evs[n] = vmsim.Event{Kind: ek, Now: now, Frame: frame, Slot: int32(u)}
		default: // loop-start, loop-iter, loop-end, read-stats
			if pos < len(buf) && buf[pos] < 0x80 {
				u, pos = uint64(buf[pos]), pos+1
			} else if u, pos, err = varint(buf, pos); err != nil {
				break decode
			}
			if u >= loops {
				err = fmt.Errorf("%w: loop id %d out of range", ErrCorrupt, u)
				break decode
			}
			evs[n] = vmsim.Event{Kind: ek, Now: now, Loop: int32(u)}
			if kind != KindLoopStart { // only loop-start has more fields
				break
			}
			if pos < len(buf) && buf[pos] < 0x80 {
				u, pos = uint64(buf[pos]), pos+1
			} else if u, pos, err = varint(buf, pos); err != nil {
				break decode
			}
			if u >= maxNumLocals {
				err = fmt.Errorf("%w: numLocals out of range", ErrCorrupt)
				break decode
			}
			evs[n].NumLocals = int32(u)
			if pos < len(buf) && buf[pos] < 0x80 {
				u, pos = uint64(buf[pos]), pos+1
			} else if u, pos, err = varint(buf, pos); err != nil {
				break decode
			}
			frame += uint64(unzigzag(u))
			evs[n].Frame = frame
		}
		if kind <= KindLocalStore {
			// Heap and local records end in a Δpc.
			if pos < len(buf) && buf[pos] < 0x80 {
				u, pos = uint64(buf[pos]), pos+1
			} else if u, pos, err = varint(buf, pos); err != nil {
				break decode
			}
			p := pc + unzigzag(u)
			if p < 0 || p >= maxPC {
				err = fmt.Errorf("%w: pc out of range", ErrCorrupt)
				break decode
			}
			pc = p
			evs[n].PC = int32(pc)
		}
		records++
	}
	r.pos, r.records = pos, records
	r.prevTime, r.prevAddr, r.prevPC, r.prevFrame = now, addr, pc, frame
	if err != nil {
		r.err = err
	}
	return n, err
}

// uvarint4 decodes a varint of at most four bytes at buf[pos:] with one
// 8-byte little-endian load: the first byte with its high bit clear ends
// it, and a mask drops the bytes after it. ok is false, and ReadEvents
// falls back to varint, when fewer than 8 bytes are left in the window or
// the varint is longer. A heap address delta is the field this serves:
// it often takes two to four bytes.
func uvarint4(buf []byte, pos int) (u uint64, next int, ok bool) {
	if len(buf)-pos < 8 {
		return 0, pos, false
	}
	w := binary.LittleEndian.Uint64(buf[pos:])
	// end is the bit after the last byte: 8, 16, 24 or 32, and 33 when
	// none of the first four bytes ends the varint.
	end := bits.TrailingZeros32(^uint32(w)&0x80808080) + 1
	w &= 1<<end - 1
	return w&0x7f | w>>1&(0x7f<<7) | w>>2&(0x7f<<14) | w>>3&(0x7f<<21), pos + end>>3, end <= 32
}

// varint decodes the varint at buf[pos:] and returns the position after
// it: ReadEvents' multi-byte fallback, and the summary trailer's reader.
func varint(buf []byte, pos int) (uint64, int, error) {
	u, n := binary.Uvarint(buf[pos:])
	switch {
	case n > 0:
		return u, pos + n, nil
	case n == 0:
		// The window holds a whole record unless the stream ended.
		return 0, pos, io.ErrUnexpectedEOF
	}
	return 0, pos, fmt.Errorf("%w: varint overflows a 64-bit integer", ErrCorrupt)
}

// readSummary reads the trailer; it returns io.EOF when the trailer is
// valid and ends the stream.
func (r *Reader) readSummary() error {
	fields := [...]*int64{
		&r.sum.CleanCycles, &r.sum.TracedCycles,
		&r.sum.HeapLoads, &r.sum.HeapStores,
		&r.sum.LocalAnnots, &r.sum.LoopAnnots,
		&r.sum.ReadStats, &r.sum.Annotations,
	}
	n, pos, err := varint(r.buf, r.pos)
	if err != nil {
		return err
	}
	if n != r.records {
		return fmt.Errorf("%w: trailer records %d, decoded %d", ErrCorrupt, n, r.records)
	}
	r.sum.Records = n
	for _, f := range fields {
		var u uint64
		if u, pos, err = varint(r.buf, pos); err != nil {
			return err
		}
		if u >= maxTime {
			return fmt.Errorf("%w: summary counter out of range", ErrCorrupt)
		}
		*f = int64(u)
	}
	r.pos = pos
	// Nothing may follow the trailer.
	if r.pos == len(r.buf) {
		if err := r.fill(); err != nil {
			return err
		}
	}
	if r.pos < len(r.buf) {
		return fmt.Errorf("%w: trailing data after summary", ErrCorrupt)
	}
	return io.EOF
}

// decodeBatch is the number of events Replay and Sweep decode per step:
// enough to amortize the per-batch dispatch, few enough (20 KiB) that a
// batch stays cache-resident while every consumer processes it.
const decodeBatch = 512

// batches holds idle decode batches, so a replay reuses an earlier
// replay's 20 KiB of events.
var batches freelist.List[[decodeBatch]vmsim.Event]

// Replay streams every event into the listeners, batch by batch in
// recorded order, and returns the trace summary. The listeners see
// exactly the sequence the recorded run produced, less its call events,
// which a recording never stores.
func (r *Reader) Replay(listeners ...vmsim.Listener) (Summary, error) {
	evs := batches.Get()
	defer batches.Put(evs)
	for {
		n, err := r.ReadEvents(evs[:])
		for _, l := range listeners {
			l.ConsumeEvents(evs[:n])
		}
		switch {
		case err == io.EOF:
			return r.sum, nil
		case err != nil:
			return Summary{}, err
		}
	}
}
