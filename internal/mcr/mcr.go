// Package mcr implements the method-call-return decomposition analysis
// that section 4.1 considers and sets aside:
//
//	"Speculative threads can be composed from loops, method call returns,
//	 and general regions. The remainder of this paper will focus only on
//	 decompositions formed from loops. Our experiments so far have not
//	 found many method call return or general region decompositions that
//	 are either not covered by similar loop decompositions or have
//	 significant coverage to impact total execution time."
//
// Under method-level speculation (the authors' earlier PACT'98 work), a
// speculative thread executes the code after a call (the continuation)
// while the head thread executes the callee. The exploitable overlap at a
// call site is bounded by three quantities this analyzer measures from the
// sequential trace:
//
//   - the callee's execution time;
//   - the continuation's length (here: until the caller's next call or
//     the caller's return, whichever comes first);
//   - the offset of the first continuation load that reads a value the
//     callee stored (a RAW arc from callee to continuation — past it, the
//     speculative thread would violate).
//
// The package also tracks whether each call site executes inside a
// candidate loop, so the experiment can reproduce the paper's
// justification: call-return opportunities are mostly subsumed by loop
// decompositions.
package mcr

import (
	"sort"

	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// SiteStats accumulates measurements for one static call site.
type SiteStats struct {
	PC     int // call instruction
	Callee int // callee function index

	Calls       int64
	CalleeTime  int64 // total cycles inside the callee
	ContTime    int64 // total continuation-window cycles
	OverlapTime int64 // total exploitable overlap (the min of the three bounds)
	// InLoopCalls counts executions where a candidate loop was active:
	// the overlap there is already addressed by a loop decomposition.
	InLoopCalls int64
}

// Analyzer is a VM listener measuring method-call-return overlap.
type Analyzer struct {
	prog  *tir.Program
	sites map[int]*SiteStats

	// Active call records (a stack parallel to the VM's).
	frames []*callRec
	// Open continuation windows, newest first (bounded).
	windows []*contWindow

	// stores holds the last store time per word, to find callee->continuation
	// arcs. Shared and unbounded: this is a software analysis, not a
	// hardware model.
	stores map[uint64]int64

	loopDepth int // active candidate loops (annotated programs only)
	totalTime int64
}

type callRec struct {
	pc         int
	fn         int
	enter      int64
	inLoop     bool
	childCalls int
}

// contWindow is an open continuation measurement: from the call's return
// until the caller issues another call or returns.
type contWindow struct {
	site       *SiteStats
	retTime    int64
	calleeLen  int64
	calleeFrom int64 // callee entry time: stores in [calleeFrom, retTime] are arcs
	firstDep   int64 // offset of first dependent load, -1 if none yet
	closed     bool
	frame      uint64 // caller frame; window closes when this frame moves on
}

var _ vmsim.Listener = (*Analyzer)(nil)

// ConsumeEvents implements vmsim.Listener. Locals are frame-private
// across a call boundary (the callee cannot write the caller's locals in
// JR), so local events carry no callee->continuation dependences and are
// skipped, as are loop iterations and read-stats.
func (a *Analyzer) ConsumeEvents(evs []vmsim.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case vmsim.EvCallEnter:
			a.callEnter(ev.Now, int(ev.Loop), int(ev.PC), ev.Frame)
		case vmsim.EvCallExit:
			a.callExit(ev.Now, int(ev.Loop), int(ev.PC), ev.Frame)
		case vmsim.EvHeapLoad:
			a.heapLoad(ev.Now, ev.Addr)
		case vmsim.EvHeapStore:
			a.stores[uint64(ev.Addr)] = ev.Now
		case vmsim.EvLoopStart:
			a.loopDepth++
		case vmsim.EvLoopEnd:
			if a.loopDepth > 0 {
				a.loopDepth--
			}
		}
	}
}

// New builds an analyzer for an annotated program.
func New(prog *tir.Program) *Analyzer {
	return &Analyzer{
		prog:   prog,
		sites:  map[int]*SiteStats{},
		stores: map[uint64]int64{},
	}
}

// Sites returns the accumulated per-site statistics, by call PC.
func (a *Analyzer) Sites() map[int]*SiteStats { return a.sites }

// SortedSites returns sites by descending exploitable overlap.
func (a *Analyzer) SortedSites() []*SiteStats {
	out := make([]*SiteStats, 0, len(a.sites))
	for _, s := range a.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OverlapTime > out[j].OverlapTime })
	return out
}

// callEnter opens a call record and closes the caller's open window (a
// new call ends the continuation of the previous one).
func (a *Analyzer) callEnter(now int64, fn, pc int, frame uint64) {
	a.closeWindows(now, frame)
	a.frames = append(a.frames, &callRec{pc: pc, fn: fn, enter: now, inLoop: a.loopDepth > 0})
}

// callExit finalizes the callee measurement and opens the continuation
// window.
func (a *Analyzer) callExit(now int64, fn, pc int, frame uint64) {
	n := len(a.frames) - 1
	if n < 0 {
		return
	}
	rec := a.frames[n]
	a.frames = a.frames[:n]

	s := a.sites[pc]
	if s == nil {
		s = &SiteStats{PC: pc, Callee: fn}
		a.sites[pc] = s
	}
	s.Calls++
	s.CalleeTime += now - rec.enter
	if rec.inLoop {
		s.InLoopCalls++
	}
	a.windows = append(a.windows, &contWindow{
		site:       s,
		retTime:    now,
		calleeLen:  now - rec.enter,
		calleeFrom: rec.enter,
		firstDep:   -1,
		frame:      frame,
	})
	// Bound the open-window set; older windows' continuations have long
	// since been cut short by later calls anyway.
	if len(a.windows) > 64 {
		a.finalize(a.windows[0], a.windows[0].retTime)
		a.windows = a.windows[1:]
	}
}

// closeWindows ends the continuation of every window owned by this frame.
func (a *Analyzer) closeWindows(now int64, frame uint64) {
	kept := a.windows[:0]
	for _, w := range a.windows {
		if !w.closed && w.frame == frame {
			a.finalize(w, now)
			continue
		}
		kept = append(kept, w)
	}
	a.windows = kept
}

func (a *Analyzer) finalize(w *contWindow, end int64) {
	w.closed = true
	cont := end - w.retTime
	if cont < 0 {
		cont = 0
	}
	overlap := cont
	if w.calleeLen < overlap {
		overlap = w.calleeLen
	}
	if w.firstDep >= 0 && w.firstDep < overlap {
		overlap = w.firstDep
	}
	w.site.ContTime += cont
	w.site.OverlapTime += overlap
	a.totalTime = end
}

// heapLoad checks open continuation windows for their first dependence on
// a callee store. Stores only record their time (in ConsumeEvents), for
// these callee->continuation arcs.
func (a *Analyzer) heapLoad(now int64, addr uint32) {
	ts, ok := a.stores[uint64(addr)]
	if !ok {
		return
	}
	for _, w := range a.windows {
		if w.closed || w.firstDep >= 0 {
			continue
		}
		if ts >= w.calleeFrom && ts <= w.retTime && now >= w.retTime {
			w.firstDep = now - w.retTime
		}
	}
}

// Finish closes any windows still open at program end.
func (a *Analyzer) Finish(now int64) {
	for _, w := range a.windows {
		if !w.closed {
			a.finalize(w, now)
		}
	}
	a.windows = nil
}

// Summary aggregates the analysis over a run.
type Summary struct {
	Sites          int
	Calls          int64
	OverlapCycles  int64   // exploitable MCR overlap
	OverlapFrac    float64 // fraction of total program cycles
	InLoopFrac     float64 // fraction of that overlap inside candidate loops
	TopSiteOverlap int64
}

// Summarize computes the run-level summary against the program's total
// cycle count.
func (a *Analyzer) Summarize(totalCycles int64) Summary {
	s := Summary{Sites: len(a.sites)}
	var inLoopOverlap int64
	for _, st := range a.sites {
		s.Calls += st.Calls
		s.OverlapCycles += st.OverlapTime
		if st.Calls > 0 {
			// Attribute overlap in proportion to in-loop executions.
			inLoopOverlap += st.OverlapTime * st.InLoopCalls / st.Calls
		}
		if st.OverlapTime > s.TopSiteOverlap {
			s.TopSiteOverlap = st.OverlapTime
		}
	}
	if totalCycles > 0 {
		s.OverlapFrac = float64(s.OverlapCycles) / float64(totalCycles)
	}
	if s.OverlapCycles > 0 {
		s.InLoopFrac = float64(inLoopOverlap) / float64(s.OverlapCycles)
	}
	return s
}
