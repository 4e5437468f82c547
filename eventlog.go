package jrpm

import (
	"sync"
	"unsafe"

	"jrpm/internal/vmsim"
)

// logChunkEvents is the capacity of one event-log chunk (160 KB): a
// multiple of the VM's 256-event batch, so a batch almost always lands
// in one chunk with one append.
const logChunkEvents = 4096

// maxLogEvents bounds an event log at about 64 MB of events. A speculate
// job over a paper kernel at scale 1 logs about 73k events (2.9 MB).
const maxLogEvents = 64 << 20 / int(unsafe.Sizeof(vmsim.Event{}))

var logChunks = sync.Pool{New: func() any {
	c := make([]vmsim.Event, 0, logChunkEvents)
	return &c
}}

// eventLog is a passive listener that keeps a copy of the traced run's
// event stream in pooled chunks, so the TLS recorder can consume the
// same stream after Equation 2 selection without running the VM again.
// Past its limit it returns its chunks to the pool and stops copying;
// complete then reports false and the caller runs the VM instead.
type eventLog struct {
	chunks []*[]vmsim.Event
	n      int
	limit  int
	over   bool
}

func newEventLog(limit int) *eventLog { return &eventLog{limit: limit} }

var _ vmsim.Listener = (*eventLog)(nil)

// ConsumeEvents implements vmsim.Listener.
func (l *eventLog) ConsumeEvents(evs []vmsim.Event) {
	if l.over {
		return
	}
	if l.n += len(evs); l.n > l.limit {
		l.release()
		l.over = true
		return
	}
	for len(evs) > 0 {
		last := len(l.chunks) - 1
		if last < 0 || len(*l.chunks[last]) == logChunkEvents {
			l.chunks = append(l.chunks, logChunks.Get().(*[]vmsim.Event))
			last++
		}
		c := l.chunks[last]
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
	for _, c := range l.chunks {
		dst.ConsumeEvents(*c)
	}
}

// release returns the log's chunks to the pool. Safe on a nil log and
// safe to repeat.
func (l *eventLog) release() {
	if l == nil {
		return
	}
	for _, c := range l.chunks {
		*c = (*c)[:0]
		logChunks.Put(c)
	}
	l.chunks = nil
}
