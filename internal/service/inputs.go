package service

import (
	"sync"
	"sync/atomic"

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

// inputEntry is one memoized input; once builds it.
type inputEntry struct {
	key  inputKey
	once sync.Once
	in   jrpm.Input
}

func (e *inputEntry) cacheKey() inputKey { return e.key }

// inputMemo keeps the inputs of workload jobs and sessions, keyed by
// (workload, scale), in an LRU bounded by bytes. A workload's input is a
// pure function of its scale, and the pipeline only reads it (the VM
// copies it into its own heap at bind time), so every job on the same
// key shares one input, and jobs that arrive while it is being built
// wait for that one build. An entry costs nothing until its build
// finishes, so the LRU never evicts one that is being built.
type inputMemo struct {
	c      *lru[inputKey, *inputEntry]
	hits   atomic.Int64
	misses atomic.Int64
}

func newInputMemo(maxBytes int64) *inputMemo {
	return &inputMemo{c: newLRU[inputKey, *inputEntry](maxBytes)}
}

// get returns w's input at scale, building it on a miss.
func (m *inputMemo) get(w *workloads.Workload, scale float64) jrpm.Input {
	k := inputKey{w.Meta.Name, scale}
	e, ok := m.c.get(k)
	if !ok {
		e, ok = m.c.put(&inputEntry{key: k}, 0, keepStored)
	}
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	e.once.Do(func() {
		e.in = w.NewInput(scale)
		m.c.recharge(k, inputBytes(e.in))
	})
	return e.in
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
	n, bytes := m.c.size()
	return InputCacheSnapshot{Count: n, Bytes: bytes, Hits: m.hits.Load(), Misses: m.misses.Load()}
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
