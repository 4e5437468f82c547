package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"jrpm/internal/vmsim"
)

// FuzzReader feeds arbitrary bytes through the full decode path. The
// contract under fuzzing is the reader's safety property: corrupt input
// must surface as an error (or a clean EOF for a coincidentally valid
// stream) — never a panic, and never unbounded allocation, which the
// format's caps and the reader's zero-per-record-allocation design
// guarantee structurally. Every batch size, in place or streamed, must
// agree with one-event batches event for event and in the class of error
// that ends the stream.
func FuzzReader(f *testing.F) {
	// Seed with a well-formed trace and targeted corruptions of it so the
	// fuzzer starts inside the interesting part of the input space.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, [32]byte{0xaa})
	if err != nil {
		f.Fatal(err)
	}
	w.LoopStart(1, 0, 2, 64)
	w.HeapLoad(2, 0x1000, 3)
	w.HeapStore(3, 0x1004, 4)
	w.LocalLoad(4, vmsim.SlotID{Frame: 64, Slot: 1}, 5)
	w.LocalStore(5, vmsim.SlotID{Frame: 64, Slot: 0}, 6)
	w.LoopIter(6, 0)
	w.LoopEnd(7, 0)
	w.ReadStats(7, 0)
	if err := w.Finish(Summary{CleanCycles: 5, TracedCycles: 7}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])                        // truncated body
	f.Add(valid[:10])                                  // truncated header
	f.Add(append([]byte{}, bytes.Repeat(valid, 2)...)) // trailing data
	bad := append([]byte{}, valid...)
	bad[40] ^= 0xff // corrupt a record tag
	f.Add(bad)
	f.Add([]byte("JRTR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeBatches(data, 1, false)
		if errors.Is(wantErr, io.EOF) && len(want) > len(data) {
			// Every record consumes at least its kind byte, so a valid
			// stream can never yield more records than input bytes.
			t.Fatalf("decoded %d records from %d bytes", len(want), len(data))
		}
		// Batch decoding — in place, and through a refilled window fed
		// one byte per read — yields the same events and error class.
		for _, batch := range []int{1, 3, decodeBatch} {
			for _, stream := range []bool{false, true} {
				if batch == 1 && !stream {
					continue // the reference decode itself
				}
				got, err := decodeBatches(data, batch, stream)
				if errClass(err) != errClass(wantErr) {
					t.Fatalf("batch %d stream=%v: error %v, one-event batches gave %v", batch, stream, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d stream=%v: %d events differ from one-event batches' %d", batch, stream, len(got), len(want))
				}
			}
		}
	})
}

// decodeBatches decodes data with ReadEvents in batches of n, from
// memory or (stream) through NewReader's window one byte per read,
// returning the events and the error that ended the stream (io.EOF after
// a complete trace, when the summary must also be available).
func decodeBatches(data []byte, n int, stream bool) ([]vmsim.Event, error) {
	var r *Reader
	var err error
	if stream {
		r, err = NewReader(iotest.OneByteReader(bytes.NewReader(data)))
	} else {
		r, err = NewBytesReader(data)
	}
	if err != nil {
		return nil, err
	}
	r.NumLoops = 4
	var evs []vmsim.Event
	buf := make([]vmsim.Event, n)
	for {
		k, err := r.ReadEvents(buf)
		evs = append(evs, buf[:k]...)
		if err != nil {
			if _, ok := r.Summary(); ok != errors.Is(err, io.EOF) {
				return evs, fmt.Errorf("summary ok=%v at %v", ok, err)
			}
			return evs, err
		}
	}
}

// errClass names the class of a decode error.
func errClass(err error) string {
	for _, c := range []error{io.EOF, io.ErrUnexpectedEOF, ErrCorrupt, ErrBadMagic, ErrBadVersion} {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	if err == nil {
		return "nil"
	}
	return "other: " + err.Error()
}
