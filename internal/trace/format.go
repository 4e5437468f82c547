// Package trace implements persistent capture and replay of the TEST
// event stream. A recorded trace is the dynamic load/store/local-access/
// loop-boundary sequence one sequential run of an annotated program
// publishes to its vmsim.Listeners, serialized into a compact binary form
// (varint + delta encoding, per-record type tags, self-describing header
// with a program hash and format version).
//
// Recording once and replaying many times is what makes large analysis
// sweeps tractable: the comparator-bank model (internal/core) is a pure
// function of the event stream and the machine configuration, so one
// recorded trace can be re-analyzed under any number of hydra
// configurations — different bank counts, buffer sizes, history depths —
// without re-executing the VM. A sweep decodes the recording once per
// worker and feeds each decoded batch of events to all of that worker's
// models in lockstep. See FORMAT.md for the wire layout and Sweep for the
// parallel offline analysis driver.
package trace

// Magic is the 4-byte file signature opening every trace.
var Magic = [4]byte{'J', 'R', 'T', 'R'}

// Version is the current format version. Versioning rule: readers reject
// any version they do not know; any change to record layouts or header
// fields bumps it (see FORMAT.md).
const Version = 1

// Kind tags one trace record.
type Kind uint8

// Record kinds. The numeric values are part of the wire format.
const (
	KindInvalid    Kind = 0
	KindHeapLoad   Kind = 1 // lw: time, addr, pc
	KindHeapStore  Kind = 2 // sw: time, addr, pc
	KindLocalLoad  Kind = 3 // lwl: time, frame, slot, pc
	KindLocalStore Kind = 4 // swl: time, frame, slot, pc
	KindLoopStart  Kind = 5 // sloop: time, loop, numLocals, frame
	KindLoopIter   Kind = 6 // eoi: time, loop
	KindLoopEnd    Kind = 7 // eloop: time, loop
	KindReadStats  Kind = 8 // read-statistics: time, loop
	KindSummary    Kind = 9 // trailer: record count, cycle totals, counters
)

func (k Kind) String() string {
	switch k {
	case KindHeapLoad:
		return "heap-load"
	case KindHeapStore:
		return "heap-store"
	case KindLocalLoad:
		return "local-load"
	case KindLocalStore:
		return "local-store"
	case KindLoopStart:
		return "loop-start"
	case KindLoopIter:
		return "loop-iter"
	case KindLoopEnd:
		return "loop-end"
	case KindReadStats:
		return "read-stats"
	case KindSummary:
		return "summary"
	}
	return "invalid"
}

// Decoder sanity caps, all exclusive: a corrupt stream must produce an
// error, never a huge allocation or an index panic downstream. Real
// programs sit far below every one of these.
const (
	maxLoopID    = 1 << 24 // static loop ids are dense and small
	maxSlot      = 1 << 24 // named-local slot index within a frame
	maxNumLocals = 1 << 16 // per-loop local timestamp reservations
	maxPC        = 1 << 31 // program-wide instruction id
	maxTime      = 1 << 62 // cumulative cycle counter ceiling
)

// Header is the self-describing preamble of a trace: the format version
// and the structural hash of the annotated program whose events follow.
// Replaying a trace against any other program is refused.
type Header struct {
	Version     uint8
	ProgramHash [32]byte
}

// Summary is the trace trailer: totals the replay pipeline needs to
// reconstruct a ProfileResult without re-running the VM. Records is the
// number of event records preceding the trailer (an integrity check);
// the cycle and counter fields mirror vmsim's run totals.
type Summary struct {
	Records      uint64
	CleanCycles  int64 // sequential cycles without tracing
	TracedCycles int64 // cycles of the recorded (annotated) run
	HeapLoads    int64
	HeapStores   int64
	LocalAnnots  int64
	LoopAnnots   int64
	ReadStats    int64
	Annotations  int64 // annotation instructions in the program
}

// Event is one decoded trace record. Fields are populated per Kind; the
// unused ones are zero.
type Event struct {
	Kind      Kind
	Time      int64  // cycle timestamp
	Addr      uint32 // heap events
	PC        int    // heap and local events
	Frame     uint64 // local and loop-start events
	Slot      int    // local events
	Loop      int    // loop events
	NumLocals int    // loop-start
}

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
