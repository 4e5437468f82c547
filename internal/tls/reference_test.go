package tls_test

import (
	"jrpm/internal/hydra"
	"jrpm/internal/tls"
)

// referenceSimulate is the map-based TLS timing simulation that
// tls.Simulate replaced, kept unchanged as the differential oracle of
// TestSimulateMatchesReference. It runs the TLS timing simulation for
// every recorded entry, aggregated per loop. Violation learning (the
// synchronization insertion of section 3.2) is shared across entries, as
// the recompiler would patch the loop once.
func referenceSimulate(entries []*tls.Entry, cfg hydra.Config) map[int]*tls.Result {
	out := map[int]*tls.Result{}
	syncd := map[int]int{} // violations per load PC
	for _, e := range entries {
		r := out[e.Loop]
		if r == nil {
			r = &tls.Result{Loop: e.Loop}
			out[e.Loop] = r
		}
		tlsCycles := referenceEntry(e, cfg, r, syncd)
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

// refLastWrite records who stored to an address last and when.
type refLastWrite struct {
	thread int
	time   int64
}

// referenceEntry computes the speculative execution time of one loop entry.
func referenceEntry(e *tls.Entry, cfg hydra.Config, r *tls.Result, syncd map[int]int) int64 {
	p := cfg.CPUs
	ov := cfg.Overheads

	procFree := make([]int64, p)
	for i := range procFree {
		procFree[i] = ov.LoopStartup // loop startup runs before thread 0
	}

	// RAW dependences are tracked at word granularity: Hydra's secondary
	// cache write buffers hold per-word speculative data and forward it to
	// dependent loads, and the TEST dependency analysis itself compares
	// per-word store timestamps. (Buffer capacity below is still counted
	// in cache lines, per Table 1.)
	stores := map[uint64]refLastWrite{} // heap: by word address
	locals := map[uint64]refLastWrite{} // synchronized locals: by slot id
	var commitPrev int64 = ov.LoopStartup
	var prevStart int64 = ov.LoopStartup

	for k := range e.Iters {
		it := &e.Iters[k]
		cpu := k % p
		s := procFree[cpu]
		if s < prevStart {
			s = prevStart // threads are created in order
		}
		if k == 0 {
			s = ov.LoopStartup
		}

		// scan replays the thread's accesses from start time s with the
		// stores of finalized predecessors visible: it returns either a
		// restart time (a RAW violation: an older thread's store landed
		// after this thread already read the line) or the accumulated
		// stall, communication-wait cycles, and the absolute time of every
		// access.
		scan := func(s int64) (restartAt, stall, comm int64, times []int64, restartPC int) {
			restartAt = -1
			times = make([]int64, len(it.Acc))
			written := map[uint64]bool{}
			ownLocals := map[uint64]bool{}
			for ai := range it.Acc {
				a := &it.Acc[ai]
				t := s + a.Rel + stall
				times[ai] = t
				switch a.Kind {
				case tls.Load:
					word := a.Addr &^ 3
					if written[word] {
						continue // forwarded from own store buffer
					}
					lw, ok := stores[word]
					if !ok || lw.thread >= k {
						continue
					}
					if lw.time > t && syncd[int(a.PC)] < tls.SyncThreshold {
						restartAt = lw.time + ov.Violation
						restartPC = int(a.PC)
						return
					}
					if need := lw.time + ov.StoreLoadComm; need > t {
						// Either plain store->load latency, or a
						// synchronized access waiting out the producer.
						stall += need - t
						comm += need - t
						times[ai] = need
					}
				case tls.Store:
					written[a.Addr&^3] = true
				case tls.LocalLoad:
					if ownLocals[a.Addr] {
						continue // reads this thread's own (private) value
					}
					lw, ok := locals[a.Addr]
					if !ok || lw.thread >= k {
						continue
					}
					// Globalized + synchronized by the recompiler: wait,
					// never violate.
					if need := lw.time + ov.StoreLoadComm; need > t {
						stall += need - t
						comm += need - t
						times[ai] = need
					}
				case tls.LocalStore:
					ownLocals[a.Addr] = true
				}
			}
			return
		}

		// Fixed point over restarts: the thread's start only moves later,
		// which can only satisfy more dependences, so this terminates.
		var stall, comm int64
		var times []int64
		for tries := 0; ; tries++ {
			restartAt, st, cm, tm, pc := scan(s)
			if restartAt < 0 {
				stall, comm, times = st, cm, tm
				break
			}
			r.Violations++
			syncd[pc]++
			if restartAt <= s {
				restartAt = s + 1 // guarantee progress
			}
			s = restartAt
			if tries > len(it.Acc)+4 {
				// Defensive bound; with finitely many predecessor stores
				// each restart consumes one, so this cannot trigger.
				_, stall, comm, times = 0, st, cm, tm
				break
			}
		}
		r.CommStalls += comm

		// Speculative buffer overflow: find the first access at which the
		// thread's distinct-line footprint exceeds a Table 1 limit; from
		// that point it stalls until it is the head thread.
		var ovfStall int64
		ldLines := map[uint64]bool{}
		stLines := map[uint64]bool{}
		for ai := range it.Acc {
			a := &it.Acc[ai]
			over := false
			switch a.Kind {
			case tls.Load:
				ldLines[a.Addr/hydra.LineSize] = true
				over = len(ldLines) > cfg.Buffers.LoadLines
			case tls.Store:
				stLines[a.Addr/hydra.LineSize] = true
				over = len(stLines) > cfg.Buffers.StoreLines
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

		finish := s + it.Len + stall + ovfStall + ov.EndOfIter
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
			case tls.Store:
				word := a.Addr &^ 3
				if lw, ok := stores[word]; !ok || t >= lw.time {
					stores[word] = refLastWrite{thread: k, time: t}
				}
			case tls.LocalStore:
				if lw, ok := locals[a.Addr]; !ok || t >= lw.time {
					locals[a.Addr] = refLastWrite{thread: k, time: t}
				}
			}
		}

		procFree[cpu] = commit
		prevStart = s
		commitPrev = commit
	}
	return commitPrev + ov.LoopShutdown
}
