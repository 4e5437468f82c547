package service

import (
	"container/list"
	"sync"

	"jrpm"
	"jrpm/internal/workloads"
)

// inputMemoBytes bounds the workload inputs the pool keeps built. The 26
// workloads at scale 1 take about 1.5 MB together; the largest at
// MaxScale takes about 57 MB and is never kept.
const inputMemoBytes = 32 << 20

// inputKey names one built workload input.
type inputKey struct {
	workload string
	scale    float64
}

// inputEntry is one memoized input. once builds it; the memo charges its
// bytes when the build finishes.
type inputEntry struct {
	key   inputKey
	once  sync.Once
	in    jrpm.Input
	bytes int64
	built bool // charged to the memo; guarded by the memo's mutex
	el    *list.Element
}

// inputMemo keeps the inputs of workload jobs and sessions, keyed by
// (workload, scale), in an LRU bounded by bytes. A workload's input is a
// pure function of its scale, and the pipeline only reads it (the VM
// copies it into its own heap at bind time), so every job on the same
// key shares one input, and jobs that arrive while it is being built
// wait for that one build.
type inputMemo struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	ll       *list.List // front = most recently used
	items    map[inputKey]*inputEntry
	hits     int64
	misses   int64
}

func newInputMemo(maxBytes int64) *inputMemo {
	return &inputMemo{maxBytes: maxBytes, ll: list.New(), items: map[inputKey]*inputEntry{}}
}

// get returns w's input at scale, building it on a miss.
func (m *inputMemo) get(w *workloads.Workload, scale float64) jrpm.Input {
	k := inputKey{w.Meta.Name, scale}
	m.mu.Lock()
	e, ok := m.items[k]
	if ok {
		m.hits++
		m.ll.MoveToFront(e.el)
	} else {
		m.misses++
		e = &inputEntry{key: k}
		e.el = m.ll.PushFront(e)
		m.items[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.in = w.NewInput(scale)
		e.bytes = inputBytes(e.in)
		m.charge(e)
	})
	return e.in
}

// charge accounts a freshly built entry, then evicts least recently used
// built entries until the memo is within its bound. An entry larger than
// the bound is dropped at once; its callers still get the input.
func (m *inputMemo) charge(e *inputEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.bytes > m.maxBytes {
		m.remove(e)
		return
	}
	e.built = true
	m.curBytes += e.bytes
	for el := m.ll.Back(); el != nil && m.curBytes > m.maxBytes; {
		prev := el.Prev()
		if v := el.Value.(*inputEntry); v.built {
			m.remove(v)
		}
		el = prev
	}
}

// remove drops e from the memo; the caller holds m.mu.
func (m *inputMemo) remove(e *inputEntry) {
	m.ll.Remove(e.el)
	delete(m.items, e.key)
	if e.built {
		m.curBytes -= e.bytes
	}
}

// InputCacheSnapshot is the "input_cache" section of GET /v1/metrics:
// the memoized workload inputs and how often jobs found theirs built.
type InputCacheSnapshot struct {
	Count  int   `json:"count"`
	Bytes  int64 `json:"bytes"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (m *inputMemo) snapshot() InputCacheSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return InputCacheSnapshot{Count: len(m.items), Bytes: m.curBytes, Hits: m.hits, Misses: m.misses}
}

// inputBytes is the heap an input's arrays take.
func inputBytes(in jrpm.Input) int64 {
	var n int64
	for _, v := range in.Ints {
		n += int64(cap(v)) * 8
	}
	for _, v := range in.Floats {
		n += int64(cap(v)) * 8
	}
	return n
}
