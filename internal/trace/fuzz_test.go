package trace

import (
	"bytes"
	"errors"
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
// that ends the stream, and so must the reference decoder (refReader).
func FuzzReader(f *testing.F) {
	// Seed with a well-formed trace and targeted corruptions of it so the
	// fuzzer starts inside the interesting part of the input space.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, [32]byte{0xaa})
	if err != nil {
		f.Fatal(err)
	}
	w.ConsumeEvents([]vmsim.Event{
		{Kind: vmsim.EvLoopStart, Now: 1, Loop: 0, NumLocals: 2, Frame: 64},
		{Kind: vmsim.EvHeapLoad, Now: 2, Addr: 0x1000, PC: 3},
		{Kind: vmsim.EvHeapStore, Now: 3, Addr: 0x1004, PC: 4},
		{Kind: vmsim.EvLocalLoad, Now: 4, Frame: 64, Slot: 1, PC: 5},
		{Kind: vmsim.EvLocalStore, Now: 5, Frame: 64, Slot: 0, PC: 6},
		{Kind: vmsim.EvLoopIter, Now: 6, Loop: 0},
		{Kind: vmsim.EvLoopEnd, Now: 7, Loop: 0},
		{Kind: vmsim.EvReadStats, Now: 7, Loop: 0},
	})
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
		// The one-loop decode agrees with the per-field decoder it
		// replaced, event for event and in the class of error.
		ref := decodeAll(data, 4, decodeBatch, true, nil)
		if errClass(ref.Err) != errClass(wantErr) {
			t.Fatalf("error %v, reference decoder gave %v", wantErr, ref.Err)
		}
		if !reflect.DeepEqual(ref.Events, want) {
			t.Fatalf("%d events differ from the reference decoder's %d", len(want), len(ref.Events))
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
	var src func(io.Reader) io.Reader
	if stream {
		src = iotest.OneByteReader
	}
	d := decodeAll(data, 4, n, false, src)
	return d.Events, d.Err
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
