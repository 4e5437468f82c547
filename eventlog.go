package jrpm

import (
	"unsafe"

	"jrpm/internal/freelist"
	"jrpm/internal/vmsim"
)

// logChunkEvents is the capacity of one event-log chunk (160 KB): a
// multiple of the VM's 256-event batch, so a batch almost always lands
// in one chunk with one append.
const logChunkEvents = 4096

// maxLogEvents bounds an event log at about 64 MB of events. A speculate
// job over a paper kernel at scale 1 logs about 73k events (2.9 MB).
const maxLogEvents = 64 << 20 / int(unsafe.Sizeof(vmsim.Event{}))

// maxIdleChunks bounds the chunks an idle event log keeps for the next
// run (7.5 MB); a paper kernel at scale 1 logs at most 43.
const maxIdleChunks = 48

// logs keeps idle event logs with their chunks. A freelist rather than a
// sync.Pool of chunks: a sync.Pool keeps the last chunk a P put back in
// that P's private slot, out of reach of a job whose goroutine runs on
// another P, so a warm job allocated a fresh 160 KB chunk whenever the
// scheduler moved it.
var logs freelist.List[eventLog]

// eventLog is a passive listener that keeps a copy of the traced run's
// event stream in reused chunks, so the TLS recorder can consume the
// same stream after Equation 2 selection without running the VM again.
// Past its limit it drops what it holds and stops copying; complete
// then reports false and the caller runs the VM instead.
type eventLog struct {
	chunks [][]vmsim.Event // chunks[:used] hold the stream; the rest are empty
	used   int
	n      int
	limit  int
	over   bool
}

// newEventLog takes an idle log, bounded at limit events, from logs.
// Return it with release.
func newEventLog(limit int) *eventLog {
	l := logs.Get()
	l.n, l.limit, l.over = 0, limit, false
	return l
}

var _ vmsim.Listener = (*eventLog)(nil)

// ConsumeEvents implements vmsim.Listener.
func (l *eventLog) ConsumeEvents(evs []vmsim.Event) {
	if l.over {
		return
	}
	if l.n += len(evs); l.n > l.limit {
		l.reset()
		l.over = true
		return
	}
	for len(evs) > 0 {
		if l.used == 0 || len(l.chunks[l.used-1]) == logChunkEvents {
			if l.used == len(l.chunks) {
				l.chunks = append(l.chunks, make([]vmsim.Event, 0, logChunkEvents))
			}
			l.used++
		}
		c := &l.chunks[l.used-1]
		k := min(logChunkEvents-len(*c), len(evs))
		*c = append(*c, evs[:k]...)
		evs = evs[k:]
	}
}

// complete reports whether the log holds the whole run's event stream.
// A nil log holds nothing.
func (l *eventLog) complete() bool { return l != nil && !l.over }

// replay delivers the logged stream to dst in execution order.
func (l *eventLog) replay(dst vmsim.Listener) {
	for _, c := range l.chunks[:l.used] {
		dst.ConsumeEvents(c)
	}
}

// reset empties the chunks in use.
func (l *eventLog) reset() {
	for i := range l.chunks[:l.used] {
		l.chunks[i] = l.chunks[i][:0]
	}
	l.used = 0
}

// release returns the log to logs, keeping at most maxIdleChunks of its
// chunks. Safe on a nil log; call it once.
func (l *eventLog) release() {
	if l == nil {
		return
	}
	l.reset()
	if len(l.chunks) > maxIdleChunks {
		clear(l.chunks[maxIdleChunks:])
		l.chunks = l.chunks[:maxIdleChunks]
	}
	logs.Put(l)
}
