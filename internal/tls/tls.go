// Package tls is the thread-level-speculation execution simulator: it
// replays the iterations of a selected STL as speculative threads on the
// 4-CPU Hydra model and reports the resulting ("Actual", in Figure 11)
// execution time.
//
// The model follows the Hydra TLS semantics described in sections 1 and 3:
//
//   - threads (one loop iteration each) are started strictly in sequential
//     order on the next free CPU;
//   - a store by an older thread to a line an younger thread has already
//     read is a RAW violation: the younger thread restarts (Table 2
//     violation overhead) at the store;
//   - a dependent load that arrives after the store pays the store→load
//     communication latency;
//   - inter-thread dependent local variables are globalized and
//     synchronized by the recompiler, so they stall rather than violate;
//   - WAR and WAW hazards never cost anything (handled by the write
//     buffers);
//   - a thread whose speculative read/write state exceeds the Table 1
//     buffer limits stalls until it becomes the head (oldest) thread;
//   - threads commit in order; loop startup/shutdown and end-of-iteration
//     overheads come from Table 2.
//
// Violations only propagate from older to younger threads, so processing
// threads in sequential order with finalized predecessors is exact.
package tls

import (
	"math/bits"

	"jrpm/internal/hydra"
)

// AccessKind distinguishes trace events.
type AccessKind uint8

// Access kinds.
const (
	Load AccessKind = iota
	Store
	LocalLoad
	LocalStore
)

// Access is one memory or synchronized-local access at a relative cycle
// offset within its iteration. PC is an int32, like vmsim.Event's, which
// keeps an Access at 24 bytes.
type Access struct {
	Rel  int64
	Addr uint64 // byte address, or synthetic slot address for locals
	Kind AccessKind
	PC   int32
}

// Iter is one recorded loop iteration.
type Iter struct {
	Len int64 // sequential cycles
	Acc []Access
}

// Entry is one recorded dynamic entry of a selected loop.
type Entry struct {
	Loop      int
	SeqCycles int64
	Iters     []Iter
}

// Result aggregates the simulation of all entries of one loop.
type Result struct {
	Loop           int
	Entries        int
	Threads        int64
	SeqCycles      int64 // sequential time of the recorded entries
	TLSCycles      int64 // simulated speculative time
	Violations     int64
	CommStalls     int64 // cycles lost waiting on store->load communication
	OverflowStalls int64 // threads that stalled on buffer overflow
	Speedup        float64
}

// ViolationRate reports RAW violations per speculative thread — the
// restart frequency an adaptive runtime watches to decide whether a
// decomposition is worth keeping (Prophet-style re-tiering: a loop whose
// threads restart constantly wastes the CPUs it occupies even when it
// still nets a speedup on paper).
func (r *Result) ViolationRate() float64 {
	if r.Threads == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Threads)
}

// OverflowRate reports buffer-overflow stalls per speculative thread.
func (r *Result) OverflowRate() float64 {
	if r.Threads == 0 {
		return 0
	}
	return float64(r.OverflowStalls) / float64(r.Threads)
}

// syncThreshold is how many violations a static load instruction causes
// before the recompiler synchronizes it ("inserting synchronization
// locks", section 3.2): afterwards that load waits for the producing store
// instead of violating.
const syncThreshold = 2

// Simulate runs the TLS timing simulation for every recorded entry,
// aggregated per loop. Violation learning (the synchronization insertion
// of section 3.2) is shared across entries, as the recompiler would patch
// the loop once.
func Simulate(entries []*Entry, cfg hydra.Config) map[int]*Result {
	out := map[int]*Result{}
	s := &sim{cfg: cfg, procFree: make([]int64, max(cfg.CPUs, 0))}
	for _, e := range entries {
		r := out[e.Loop]
		if r == nil {
			r = &Result{Loop: e.Loop}
			out[e.Loop] = r
		}
		tlsCycles := s.entry(e, r)
		r.Entries++
		r.Threads += int64(len(e.Iters))
		r.SeqCycles += e.SeqCycles
		r.TLSCycles += tlsCycles
	}
	for _, r := range out {
		if r.TLSCycles > 0 {
			r.Speedup = float64(r.SeqCycles) / float64(r.TLSCycles)
		} else {
			r.Speedup = 1
		}
	}
	return out
}

// lastWrite records who stored to an address last and when.
type lastWrite struct {
	thread int
	time   int64
}

// sim is the scratch state of one Simulate call. Every table and buffer
// is sized by the largest entry or thread seen so far and reused for the
// next one, so a call allocates per table doubling, not per entry or per
// thread. It is never shared between calls.
type sim struct {
	cfg      hydra.Config
	procFree []int64 // per CPU: when its current thread commits
	times    []int64 // absolute time of each access of the current thread

	// RAW dependences are tracked at word granularity: Hydra's secondary
	// cache write buffers hold per-word speculative data and forward it to
	// dependent loads, and the TEST dependency analysis itself compares
	// per-word store timestamps. (Buffer capacity is still counted in
	// cache lines, per Table 1.)
	stores table[lastWrite] // per entry, heap: by word address
	locals table[lastWrite] // per entry, synchronized locals: by slot address

	written   table[struct{}] // per scan: words this thread stored
	ownLocals table[struct{}] // per scan: locals this thread stored
	ldLines   table[struct{}] // per thread: distinct lines read
	stLines   table[struct{}] // per thread: distinct lines written

	// Violations per load PC, shared across entries: a slice indexed by
	// PC for PCs in [0, denseSyncPCs), a map for any other.
	syncd    []int32
	syncdFar map[int32]int32
}

// denseSyncPCs bounds the PC-indexed violation counters; a program's PCs
// are its instruction indices, far below it.
const denseSyncPCs = 1 << 20

func (s *sim) violations(pc int32) int32 {
	if uint32(pc) < denseSyncPCs {
		if int(pc) < len(s.syncd) {
			return s.syncd[pc]
		}
		return 0
	}
	return s.syncdFar[pc]
}

func (s *sim) addViolation(pc int32) {
	if uint32(pc) < denseSyncPCs {
		if int(pc) >= len(s.syncd) {
			grown := make([]int32, max(int(pc)+1, 2*len(s.syncd)))
			copy(grown, s.syncd)
			s.syncd = grown
		}
		s.syncd[pc]++
		return
	}
	if s.syncdFar == nil {
		s.syncdFar = map[int32]int32{}
	}
	s.syncdFar[pc]++
}

// entry computes the speculative execution time of one loop entry.
func (s *sim) entry(e *Entry, r *Result) int64 {
	cfg := &s.cfg
	p := cfg.CPUs
	ov := &cfg.Overheads

	procFree := s.procFree
	for i := range procFree {
		procFree[i] = ov.LoopStartup // loop startup runs before thread 0
	}
	s.stores.reset()
	s.locals.reset()
	var commitPrev int64 = ov.LoopStartup
	var prevStart int64 = ov.LoopStartup

	for k := range e.Iters {
		it := &e.Iters[k]
		cpu := k % p
		start := procFree[cpu]
		if start < prevStart {
			start = prevStart // threads are created in order
		}
		if k == 0 {
			start = ov.LoopStartup
		}
		if n := len(it.Acc); cap(s.times) < n {
			s.times = make([]int64, n, max(n, 2*cap(s.times)))
		}
		s.times = s.times[:len(it.Acc)]

		// Fixed point over restarts: the thread's start only moves later,
		// which can only satisfy more dependences, so this terminates.
		var stall, comm int64
		for tries := 0; ; tries++ {
			restartAt, st, cm, pc := s.scan(it, k, start)
			stall, comm = st, cm
			if restartAt < 0 {
				break
			}
			r.Violations++
			s.addViolation(pc)
			if restartAt <= start {
				restartAt = start + 1 // guarantee progress
			}
			start = restartAt
			if tries > len(it.Acc)+4 {
				// Defensive bound; with finitely many predecessor stores
				// each restart consumes one, so this cannot trigger.
				break
			}
		}
		r.CommStalls += comm
		times := s.times

		// Speculative buffer overflow: find the first access at which the
		// thread's distinct-line footprint exceeds a Table 1 limit; from
		// that point it stalls until it is the head thread. A thread with
		// no more accesses than the smaller limit cannot exceed either.
		var ovfStall int64
		if len(it.Acc) > min(cfg.Buffers.LoadLines, cfg.Buffers.StoreLines) {
			s.ldLines.reset()
			s.stLines.reset()
			for ai := range it.Acc {
				a := &it.Acc[ai]
				over := false
				switch a.Kind {
				case Load:
					s.ldLines.put(a.Addr / hydra.LineSize)
					over = s.ldLines.n > cfg.Buffers.LoadLines
				case Store:
					s.stLines.put(a.Addr / hydra.LineSize)
					over = s.stLines.n > cfg.Buffers.StoreLines
				}
				if over {
					at := times[ai]
					if commitPrev > at {
						ovfStall = commitPrev - at
						r.OverflowStalls++
					}
					break
				}
			}
		}

		finish := start + it.Len + stall + ovfStall + ov.EndOfIter
		commit := finish
		if commit < commitPrev {
			commit = commitPrev
		}

		// Publish this thread's stores at their absolute times. Younger
		// threads must honour the latest store to a line, so the max time
		// wins.
		for ai := range it.Acc {
			a := &it.Acc[ai]
			t := times[ai]
			switch a.Kind {
			case Store:
				if lw, added := s.stores.put(a.Addr &^ 3); added || t >= lw.time {
					*lw = lastWrite{thread: k, time: t}
				}
			case LocalStore:
				if lw, added := s.locals.put(a.Addr); added || t >= lw.time {
					*lw = lastWrite{thread: k, time: t}
				}
			}
		}

		procFree[cpu] = commit
		prevStart = start
		commitPrev = commit
	}
	return commitPrev + ov.LoopShutdown
}

// scan replays thread k's accesses from start time start with the stores
// of finalized predecessors visible, filling s.times with the absolute
// time of every access. It returns either a restart time (a RAW
// violation: an older thread's store landed after this thread already
// read the line) and the violating load's PC, or restartAt < 0 and the
// accumulated stall and communication-wait cycles.
func (s *sim) scan(it *Iter, k int, start int64) (restartAt, stall, comm int64, restartPC int32) {
	ov := &s.cfg.Overheads
	times := s.times
	s.written.reset()
	s.ownLocals.reset()
	for ai := range it.Acc {
		a := &it.Acc[ai]
		t := start + a.Rel + stall
		times[ai] = t
		switch a.Kind {
		case Load:
			word := a.Addr &^ 3
			if s.written.get(word) != nil {
				continue // forwarded from own store buffer
			}
			lw := s.stores.get(word)
			if lw == nil || lw.thread >= k {
				continue
			}
			if lw.time > t && s.violations(a.PC) < syncThreshold {
				return lw.time + ov.Violation, stall, comm, a.PC
			}
			if need := lw.time + ov.StoreLoadComm; need > t {
				// Either plain store->load latency, or a synchronized
				// access waiting out the producer.
				stall += need - t
				comm += need - t
				times[ai] = need
			}
		case Store:
			s.written.put(a.Addr &^ 3)
		case LocalLoad:
			if s.ownLocals.get(a.Addr) != nil {
				continue // reads this thread's own (private) value
			}
			lw := s.locals.get(a.Addr)
			if lw == nil || lw.thread >= k {
				continue
			}
			// Globalized + synchronized by the recompiler: wait, never
			// violate.
			if need := lw.time + ov.StoreLoadComm; need > t {
				stall += need - t
				comm += need - t
				times[ai] = need
			}
		case LocalStore:
			s.ownLocals.put(a.Addr)
		}
	}
	return -1, stall, comm, 0
}

// table is an open-addressed hash table keyed by address, with linear
// probing. reset empties it in O(1) by bumping a generation stamp: a slot
// is live only if it carries the current generation. It doubles when
// three quarters full, so it grows on demand to the largest working set
// it has held and is then reused without allocating.
type table[V any] struct {
	slots []slot[V]
	gen   uint32
	n     int   // live slots
	shift uint8 // 64 - log2(len(slots))
}

type slot[V any] struct {
	key uint64
	gen uint32
	val V
}

const minTableSlots = 64

func (t *table[V]) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 { // wrapped: stale stamps would read as live again
		clear(t.slots)
		t.gen = 1
	}
}

func (t *table[V]) index(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// get returns key's value, or nil when key is absent.
func (t *table[V]) get(key uint64) *V {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.index(key); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.gen != t.gen {
			return nil
		}
		if sl.key == key {
			return &sl.val
		}
	}
}

// put returns key's value, inserting a zero value if key is absent;
// added reports the insertion.
func (t *table[V]) put(key uint64) (v *V, added bool) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.index(key); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.gen != t.gen {
			var zero V
			sl.key, sl.gen, sl.val = key, t.gen, zero
			t.n++
			return &sl.val, true
		}
		if sl.key == key {
			return &sl.val, false
		}
	}
}

// grow doubles the table and moves the live slots over, starting a fresh
// generation in the fresh slots.
func (t *table[V]) grow() {
	old, oldGen := t.slots, t.gen
	size := max(2*len(old), minTableSlots)
	t.slots = make([]slot[V], size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.gen = 1
	mask := size - 1
	for j := range old {
		if old[j].gen != oldGen {
			continue
		}
		i := t.index(old[j].key)
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = old[j]
		t.slots[i].gen = t.gen
	}
}
