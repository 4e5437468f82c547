package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"jrpm/internal/corpus"
	"jrpm/internal/trace"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// recording is one program's trace and its loop-table length, the
// loop-id bound a replay into it decodes with.
type recording struct {
	name  string
	data  []byte
	loops int
}

// sameDecode holds ReadEvents to the reference decoder on data, in
// place and, unless stream is nil, through NewReader's window fed by
// stream: the same events, the same count returned with the error that
// ends the stream, the same error text and the same summary. name and
// args describe data.
func sameDecode(t *testing.T, data []byte, loops, batch int, stream func(io.Reader) io.Reader, name string, args ...any) {
	t.Helper()
	modes := []func(io.Reader) io.Reader{nil}
	if stream != nil {
		modes = append(modes, stream)
	}
	for _, stream := range modes {
		got := trace.DecodeAll(data, loops, batch, false, stream)
		want := trace.DecodeAll(data, loops, batch, true, stream)
		var diff string
		switch {
		case !slices.Equal(got.Events, want.Events):
			diff = fmt.Sprintf("%d events differ from the reference's %d", len(got.Events), len(want.Events))
		case got.N != want.N:
			diff = fmt.Sprintf("%d events returned with the error, reference %d", got.N, want.N)
		case fmt.Sprint(got.Err) != fmt.Sprint(want.Err):
			diff = fmt.Sprintf("error %q, reference %q", got.Err, want.Err)
		case got.Sum != want.Sum || got.SumOK != want.SumOK:
			diff = fmt.Sprintf("summary %+v (%v), reference %+v (%v)", got.Sum, got.SumOK, want.Sum, want.SumOK)
		default:
			continue
		}
		t.Fatalf("%s stream=%v: %s", fmt.Sprintf(name, args...), stream != nil, diff)
	}
}

// TestReaderMatchesReference: the one-loop ReadEvents decodes exactly
// what the per-field decoder it replaced decodes, on the recordings of
// the 26 kernels and of 100 default-corpus programs, and on every
// truncation and every single-byte XOR corruption of the two smallest
// of those recordings: in place and streamed, except that a corruption
// is streamed only when it flips one bit or all eight.
func TestReaderMatchesReference(t *testing.T) {
	var recs []recording
	for _, w := range workloads.All() {
		c, data := recordWorkload(t, w.Meta.Name)
		recs = append(recs, recording{"kernel/" + w.Meta.Name, data, len(c.Annotated.Loops)})
	}
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(progs); i += 5 {
		c, data := recordSource(t, progs[i].Source, progs[i].Input())
		recs = append(recs, recording{fmt.Sprintf("corpus/%d", i), data, len(c.Annotated.Loops)})
	}
	if len(recs) < 126 {
		t.Fatalf("%d recordings, want the 26 kernels and 100 corpus programs", len(recs))
	}
	for _, rec := range recs {
		for _, batch := range []int{3, 512} {
			sameDecode(t, rec.data, rec.loops, batch, iotest.HalfReader, rec.name)
		}
		if d := trace.DecodeAll(rec.data, rec.loops, 512, false, nil); !errors.Is(d.Err, io.EOF) {
			t.Fatalf("%s: recording does not decode: %v", rec.name, d.Err)
		}
	}

	slices.SortStableFunc(recs, func(a, b recording) int { return len(a.data) - len(b.data) })
	for _, rec := range recs[:2] {
		for cut := range len(rec.data) {
			sameDecode(t, rec.data[:cut], rec.loops, 16, iotest.OneByteReader, "%s cut at %d", rec.name, cut)
		}
		bad := slices.Clone(rec.data)
		for i := range bad {
			for x := 1; x < 256; x++ {
				// NewReader's 64 KiB window dominates a streamed decode
				// of a few hundred bytes, so the streamed path sees the
				// single-bit flips and the inversion of every byte.
				var stream func(io.Reader) io.Reader
				if x&(x-1) == 0 || x == 0xff {
					stream = iotest.OneByteReader
				}
				bad[i] ^= byte(x)
				sameDecode(t, bad, rec.loops, 16, stream, "%s byte %d ^ %#x", rec.name, i, x)
				bad[i] ^= byte(x)
			}
		}
	}
}

// TestReadEventsAllocs: decoding a whole kernel recording allocates 0
// times per batch, in place or through NewReader's window (FORMAT.md: no
// allocation per record). The count is the whole decode's, divided by
// its batches as testing.AllocsPerRun divides by its runs, so a stray
// allocation by another goroutine of the test binary does not count.
func TestReadEventsAllocs(t *testing.T) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	c, data := recordSource(t, w.Source, w.NewInput(1))
	evs := make([]vmsim.Event, 512)
	for _, stream := range []bool{false, true} {
		var r *trace.Reader
		if stream {
			r, err = trace.NewReader(bytes.NewReader(data))
		} else {
			r, err = trace.NewBytesReader(data)
		}
		if err != nil {
			t.Fatal(err)
		}
		r.NumLoops = len(c.Annotated.Loops)
		var rerr error
		batches := 0
		allocs := mallocs(func() {
			for rerr == nil {
				_, rerr = r.ReadEvents(evs)
				batches++
			}
		})
		if !errors.Is(rerr, io.EOF) {
			t.Fatalf("stream=%v: %v", stream, rerr)
		}
		t.Logf("stream=%v: %d bytes in %d batches, %d allocations", stream, len(data), batches, allocs)
		if perBatch := allocs / uint64(batches); perBatch != 0 {
			t.Errorf("stream=%v: %d allocations per batch (%d over %d batches), want 0", stream, perBatch, allocs, batches)
		}
	}
}

// mallocs counts the heap allocations made while f runs, at GOMAXPROCS
// 1 as testing.AllocsPerRun counts them.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
