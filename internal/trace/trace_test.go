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

// eventLog records the replayed stream for comparison against what was
// written.
type eventLog struct {
	events []vmsim.Event
}

func (l *eventLog) ConsumeEvents(evs []vmsim.Event) { l.events = append(l.events, evs...) }

// playEvents is a fixed synthetic event sequence that exercises every
// record kind, both delta signs, and frame wraparound.
func playEvents() []vmsim.Event {
	const wrap = 0xffff_ffff_ffff_fff0
	return []vmsim.Event{
		{Kind: vmsim.EvLoopStart, Now: 10, Loop: 0, NumLocals: 3, Frame: wrap},
		{Kind: vmsim.EvHeapLoad, Now: 11, Addr: 0x1000, PC: 4},
		{Kind: vmsim.EvHeapStore, Now: 12, Addr: 0x0800, PC: 9},     // negative address delta
		{Kind: vmsim.EvHeapLoad, Now: 12, Addr: 0xffff_ffff, PC: 2}, // max address, negative pc delta
		{Kind: vmsim.EvLocalLoad, Now: 13, Frame: wrap, Slot: 2, PC: 5},
		{Kind: vmsim.EvLocalStore, Now: 14, Frame: 16, Slot: 0, PC: 6}, // frame wraps forward past 0
		{Kind: vmsim.EvLoopIter, Now: 20, Loop: 0},
		{Kind: vmsim.EvLoopStart, Now: 21, Loop: 1, NumLocals: 0, Frame: 16},
		{Kind: vmsim.EvLoopEnd, Now: 30, Loop: 1},
		{Kind: vmsim.EvReadStats, Now: 30, Loop: 1},
		{Kind: vmsim.EvLoopIter, Now: 31, Loop: 0},
		{Kind: vmsim.EvLoopEnd, Now: 40, Loop: 0},
		{Kind: vmsim.EvReadStats, Now: 40, Loop: 0},
	}
}

func record(t *testing.T, hash [32]byte) ([]byte, Summary) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hash)
	if err != nil {
		t.Fatal(err)
	}
	w.ConsumeEvents(playEvents())
	sum := Summary{
		CleanCycles: 35, TracedCycles: 40,
		HeapLoads: 2, HeapStores: 1, LocalAnnots: 2, LoopAnnots: 6,
		ReadStats: 2, Annotations: 13,
	}
	if err := w.Finish(sum); err != nil {
		t.Fatal(err)
	}
	sum.Records = w.Records()
	return buf.Bytes(), sum
}

func TestRoundTrip(t *testing.T) {
	hash := [32]byte{1, 2, 3}
	data, wantSum := record(t, hash)

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Version != Version || r.Header().ProgramHash != hash {
		t.Fatalf("header = %+v", r.Header())
	}
	var got eventLog
	want := playEvents()
	sum, err := r.Replay(&got)
	if err != nil {
		t.Fatal(err)
	}
	if sum != wantSum {
		t.Errorf("summary = %+v, want %+v", sum, wantSum)
	}
	if len(got.events) != len(want) {
		t.Fatalf("replayed %d events, wrote %d", len(got.events), len(want))
	}
	for i := range want {
		if got.events[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got.events[i], want[i])
		}
	}
}

// TestWriterSkipsCallEvents: call boundaries share the VM's event stream
// but have no record kind, so interleaving them anywhere leaves the
// trace bytes unchanged.
func TestWriterSkipsCallEvents(t *testing.T) {
	plain, _ := record(t, [32]byte{9})
	var withCalls []vmsim.Event
	for i, ev := range playEvents() {
		withCalls = append(withCalls,
			vmsim.Event{Kind: vmsim.EvCallEnter, Now: ev.Now, Loop: int32(i), PC: 77, Frame: 5},
			ev,
			vmsim.Event{Kind: vmsim.EvCallExit, Now: ev.Now + 1, Loop: int32(i), PC: 77, Frame: 5})
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, [32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	w.ConsumeEvents(withCalls)
	if err := w.Finish(Summary{
		CleanCycles: 35, TracedCycles: 40,
		HeapLoads: 2, HeapStores: 1, LocalAnnots: 2, LoopAnnots: 6,
		ReadStats: 2, Annotations: 13,
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), plain) {
		t.Errorf("call events changed the trace bytes")
	}
}

func TestReaderSummaryGating(t *testing.T) {
	data, _ := record(t, [32]byte{})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Summary(); ok {
		t.Error("summary available before reaching the trailer")
	}
	one := make([]vmsim.Event, 1)
	for {
		if _, err := r.ReadEvents(one); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := r.Summary(); !ok {
		t.Error("summary unavailable after EOF")
	}
	// ReadEvents after EOF keeps returning EOF.
	if n, err := r.ReadEvents(one); n != 0 || !errors.Is(err, io.EOF) {
		t.Errorf("ReadEvents after EOF: %d, %v", n, err)
	}
}

func TestBadHeader(t *testing.T) {
	data, _ := record(t, [32]byte{})

	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte{}, data...)
	bad[4] = Version + 1
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}

	if _, err := NewReader(bytes.NewReader(data[:3])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated magic: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(data[:20])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated hash: %v", err)
	}
}

// drain reads records until EOF or error.
func drain(data []byte, numLoops int) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	r.NumLoops = numLoops
	evs := make([]vmsim.Event, 3)
	for {
		_, err := r.ReadEvents(evs)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func TestCorruptStreams(t *testing.T) {
	data, _ := record(t, [32]byte{})
	hdr := 5 + 32

	// Truncation anywhere inside the body is ErrUnexpectedEOF or corrupt —
	// never a nil error, never a panic.
	for n := hdr; n < len(data); n++ {
		err := drain(data[:n], 0)
		if err == nil {
			t.Fatalf("truncated at %d accepted", n)
		}
	}

	// Unknown record kind.
	bad := append([]byte{}, data...)
	bad[hdr] = 0x7f
	if err := drain(bad, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown kind: %v", err)
	}

	// Loop id beyond the replay target's table.
	if err := drain(data, 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("out-of-range loop id: %v", err)
	}

	// PCs must stay below 2^31 so they fit vmsim.Event's int32.
	pcTrace := func(pc int) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, [32]byte{})
		if err != nil {
			t.Fatal(err)
		}
		w.HeapLoad(1, 0x1000, pc)
		if err := w.Finish(Summary{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if err := drain(pcTrace(1<<31), 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("pc 2^31: %v, want ErrCorrupt", err)
	}
	if err := drain(pcTrace(1<<31-1), 0); err != nil {
		t.Errorf("pc 2^31-1: %v", err)
	}

	// Trailing garbage after the summary trailer.
	if err := drain(append(append([]byte{}, data...), 0), 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing data: %v", err)
	}

	// Wrong record count in the trailer: flip the summary's count byte.
	// The trailer starts with the KindSummary tag; find it from the end by
	// re-encoding — simpler: corrupt every byte position and require no
	// panics (error or clean EOF only — single-byte corruption may still
	// decode, but must never crash).
	for i := hdr; i < len(data); i++ {
		bad := append([]byte{}, data...)
		bad[i] ^= 0xff
		drain(bad, 0) // must not panic
	}
}

func TestWriterErrorLatch(t *testing.T) {
	w, err := NewWriter(&failAfter{n: 64}, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		w.HeapLoad(int64(i), uint32(i), i)
	}
	if err := w.Finish(Summary{}); err == nil {
		t.Fatal("Finish succeeded despite write failure")
	}
	if w.Err() == nil {
		t.Fatal("error not latched")
	}
}

func TestFinishTwice(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(Summary{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(Summary{}); err == nil {
		t.Fatal("second Finish succeeded")
	}
}

// failAfter is a Writer that errors once n bytes have been accepted.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	f.n -= len(p)
	if f.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

// TestReaderWindowRefill: a trace much longer than NewReader's 64 KiB
// window, fed a few bytes per read, decodes to exactly the events and
// summary of the in-place decoder, for batch sizes that do and do not
// divide the record count.
func TestReaderWindowRefill(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, [32]byte{7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		now := int64(i) * 3
		w.LoopStart(now, i%4, 2, uint64(i))
		w.HeapStore(now+1, uint32(i*12345), i%1000)
		w.LocalLoad(now+2, vmsim.SlotID{Frame: uint64(i), Slot: i % 7}, i%999)
		w.LoopEnd(now+2, i%4)
	}
	if err := w.Finish(Summary{TracedCycles: 60000}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) < 4<<16 {
		t.Fatalf("trace is only %d bytes; want several windows", len(data))
	}
	want, err := decodeBatches(data, 1, false)
	if !errors.Is(err, io.EOF) || len(want) != 80000 {
		t.Fatalf("in-place decode: %d events, %v", len(want), err)
	}
	for _, n := range []int{1, 7, decodeBatch} {
		r, err := NewReader(iotest.HalfReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		r.NumLoops = 4
		var got []vmsim.Event
		evs := make([]vmsim.Event, n)
		for {
			k, err := r.ReadEvents(evs)
			got = append(got, evs[:k]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("batch %d: %v", n, err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("batch %d: streamed events differ from in-place decode", n)
		}
		if sum, ok := r.Summary(); !ok || sum.Records != 80000 || sum.TracedCycles != 60000 {
			t.Errorf("batch %d: summary %+v ok=%v", n, sum, ok)
		}
	}
}

// writeLog is a Writer destination that keeps every Write's size.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (l *writeLog) Write(p []byte) (int, error) {
	l.sizes = append(l.sizes, len(p))
	return l.Buffer.Write(p)
}

// TestWriterStagesWrites: records reach the destination through the
// staging buffer — a short trace in one Write at Finish, a long one in
// writes of nearly stagingSize bytes and never more — and a batch fed
// through ConsumeEvents writes the bytes the per-record methods write.
func TestWriterStagesWrites(t *testing.T) {
	for _, n := range []int{100, 100_000} {
		evs := make([]vmsim.Event, n)
		for i := range evs {
			evs[i] = vmsim.Event{Kind: vmsim.EvHeapStore, Now: int64(3 * i), Addr: uint32(i * 4096), PC: int32(i % 977)}
		}
		var batched, single writeLog
		wb, err := NewWriter(&batched, [32]byte{1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 256 {
			wb.ConsumeEvents(evs[i:min(i+256, n)])
		}
		ws, err := NewWriter(&single, [32]byte{1})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			ws.HeapStore(ev.Now, ev.Addr, int(ev.PC))
		}
		for _, w := range []*Writer{wb, ws} {
			if err := w.Finish(Summary{}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(batched.Bytes(), single.Bytes()) {
			t.Fatalf("%d records: ConsumeEvents and HeapStore wrote different bytes", n)
		}
		for _, l := range []*writeLog{&batched, &single} {
			if l.Len() < stagingSize-maxRecordLen {
				if len(l.sizes) != 1 {
					t.Errorf("%d-byte trace reached the destination in %d writes, want 1", l.Len(), len(l.sizes))
				}
				continue
			}
			for i, size := range l.sizes {
				last := i == len(l.sizes)-1
				if size > stagingSize || (!last && size < stagingSize-maxRecordLen) {
					t.Errorf("%d-byte trace: write %d of %d is %d bytes, want at most %d and, before the last, at least %d",
						l.Len(), i, len(l.sizes), size, stagingSize, stagingSize-maxRecordLen)
				}
			}
		}
	}
}
