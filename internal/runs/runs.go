// Package runs keeps the runs jrpmd owns — profile jobs, adaptive
// sessions and replay sweeps — under one retention rule: every live run
// stays reachable by id, and of the finished ones only the most recent
// few do. Past that bound the oldest finished run is forgotten and its
// id answers like one that never existed.
package runs

import (
	"slices"
	"sync"
)

// Table maps ids to runs. A run is live from Add until Finish. Use New.
type Table[V any] struct {
	maxLive int // <= 0: Add never refuses
	retain  int // finished runs kept

	mu       sync.Mutex
	byID     map[string]*entry[V]
	order    []*entry[V] // insertion order, for List
	live     int
	finished []*entry[V] // oldest first
}

type entry[V any] struct {
	id   string
	v    V
	done bool
}

// New builds a table that refuses an Add while maxLive runs are live
// (maxLive <= 0 never refuses) and keeps the retain most recently
// finished runs.
func New[V any](maxLive, retain int) *Table[V] {
	return &Table[V]{maxLive: maxLive, retain: retain, byID: map[string]*entry[V]{}}
}

// Add inserts a live run under id unless the live bound is reached; it
// reports whether it did. The check and the insert are one step, so
// concurrent Adds never pass the bound together.
func (t *Table[V]) Add(id string, v V) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.maxLive > 0 && t.live >= t.maxLive {
		return false
	}
	e := &entry[V]{id: id, v: v}
	t.order = append(t.order, e)
	t.byID[id] = e
	t.live++
	return true
}

// Finish marks run id terminal: it stops counting as live and joins the
// finished runs, which forgets the oldest one past the retention bound.
// Finishing an unknown or already finished id does nothing.
func (t *Table[V]) Finish(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.byID[id]
	if e == nil || e.done {
		return
	}
	e.done = true
	t.live--
	t.finished = append(t.finished, e)
	if len(t.finished) > t.retain {
		t.forget(t.finished[0])
		t.finished[0] = nil
		t.finished = t.finished[1:]
	}
}

// Remove takes back the Add of live run id, for an owner whose own
// admission refuses the run after Add.
func (t *Table[V]) Remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.byID[id]; e != nil && !e.done {
		t.live--
		t.forget(e)
	}
}

// forget drops e from the table. order holds only the live runs and
// retain finished ones, which bounds the scan and shift.
func (t *Table[V]) forget(e *entry[V]) {
	delete(t.byID, e.id)
	i := slices.Index(t.order, e)
	t.order = slices.Delete(t.order, i, i+1)
}

// Get returns the run under id.
func (t *Table[V]) Get(id string) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.byID[id]; e != nil {
		return e.v, true
	}
	var zero V
	return zero, false
}

// List returns every run the table holds, live and finished, oldest
// Add first.
func (t *Table[V]) List() []V {
	t.mu.Lock()
	defer t.mu.Unlock()
	vs := make([]V, len(t.order))
	for i, e := range t.order {
		vs[i] = e.v
	}
	return vs
}

// Live is the number of runs added and not yet finished.
func (t *Table[V]) Live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}
