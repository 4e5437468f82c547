// Package annotate implements the JIT compiler's annotation pass
// (sections 3, 5.1 of the paper): it discovers every natural loop, runs
// the scalar screen to mark potential STLs, and rewrites the TIR with the
// annotating instructions of Table 4 — sloop on loop entry edges, eoi on
// back edges, eloop on exit edges, lwl/swl around named-local accesses,
// and the read-statistics calls (optionally hoisted to the outermost loop
// of a single-child nest, the optimization behind Figure 6).
package annotate

import (
	"slices"
	"sort"

	"jrpm/internal/cfg"
	"jrpm/internal/freelist"
	"jrpm/internal/scalar"
	"jrpm/internal/tir"
)

// Options selects which annotations to insert. The zero value inserts
// nothing (a clean program for baseline timing).
type Options struct {
	LoopMarkers     bool // sloop / eloop / eoi
	Locals          bool // lwl / swl
	ReadStats       bool // read-statistics calls at loop exits
	OptimizedLocals bool // annotate only the first load of a var per block
	HoistReadStats  bool // hoist read-statistics to the outermost single-child loop
}

// Base returns the unoptimized full-annotation options (1st column of
// Figure 6).
func Base() Options {
	return Options{LoopMarkers: true, Locals: true, ReadStats: true}
}

// Optimized returns the optimized full-annotation options (2nd column of
// Figure 6).
func Optimized() Options {
	return Options{LoopMarkers: true, Locals: true, ReadStats: true,
		OptimizedLocals: true, HoistReadStats: true}
}

// Apply discovers loops and rewrites prog in place according to opts. It
// always fills prog.Loops (the potential-STL table) even when opts insert
// no instructions, so callers can inspect loop structure on clean
// programs. It returns the number of annotation instructions inserted.
// jrpm.Compile applies it to a clone of the clean program, so
// Compiled.Clean stays a pre-annotation snapshot with no loop table.
//
// Apply mutates prog and is the last compile-stage pass: per the
// tir.Program concurrency contract it must run before the program is
// published to other goroutines (the jrpmd artifact cache shares
// fully-annotated programs across workers), and must never run on a
// program that is already cached or executing.
func Apply(prog *tir.Program, opts Options) (int, error) {
	prog.Loops = nil
	inserted := 0
	for fi, f := range prog.Funcs {
		n, err := applyFunc(prog, fi, f, opts)
		if err != nil {
			return inserted, err
		}
		inserted += n
	}
	if err := tir.Validate(prog); err != nil {
		return inserted, err
	}
	prog.AssignPCs()
	return inserted, nil
}

// loopRec couples a cfg loop with its program-wide metadata.
type loopRec struct {
	l    *cfg.Loop
	id   int
	sc   *scalar.LoopScalars
	info *tir.LoopInfo
}

func applyFunc(prog *tir.Program, fi int, f *tir.Function, opts Options) (int, error) {
	g := cfg.Build(f)
	forest := g.NaturalLoops()
	if len(forest.Loops) == 0 {
		return 0, nil
	}

	// Register loops (outer before inner, thanks to forest ordering).
	recs := make([]*loopRec, 0, len(forest.Loops))
	byLoop := map[*cfg.Loop]*loopRec{}
	for _, l := range forest.Loops {
		sc := scalar.Analyze(f, l, g, forest)
		id := len(prog.Loops)
		blocks := make([]int, 0, len(l.Blocks))
		for b := range l.Blocks {
			blocks = append(blocks, b)
		}
		sort.Ints(blocks)
		info := tir.LoopInfo{
			ID:          id,
			Func:        fi,
			Header:      l.Header,
			Name:        f.Name + ":" + itoa(l.Line),
			Line:        l.Line,
			StaticDepth: l.Depth,
			Blocks:      blocks,
			AnnLocals:   sc.Annotated,
			NumLocals:   len(sc.Annotated),
			Candidate:   sc.Reject == "",
			Reject:      sc.Reject,
			Scalars:     slotClasses(sc),
		}
		prog.Loops = append(prog.Loops, info)
		rec := &loopRec{l: l, id: id, sc: sc, info: &prog.Loops[id]}
		recs = append(recs, rec)
		byLoop[l] = rec
	}

	if !opts.LoopMarkers {
		return 0, nil
	}

	// Decide where each candidate loop's statistics are read.
	readAt := map[int]int{} // loop id -> loop id whose exit reads it
	for _, r := range recs {
		if !r.info.Candidate {
			continue
		}
		target := r
		if opts.HoistReadStats {
			for target.l.Parent != nil {
				p := byLoop[target.l.Parent]
				if p == nil || !p.info.Candidate || len(target.l.Parent.Children) != 1 {
					break
				}
				target = p
			}
		}
		readAt[r.id] = target.id
		if target.id != r.id {
			r.info.Hoisted = true
		}
	}
	// readsHere[loop id] = ids whose stats are read at this loop's exits,
	// innermost (self) first.
	readsHere := map[int][]int{}
	for _, r := range recs {
		if t, ok := readAt[r.id]; ok {
			readsHere[t] = append(readsHere[t], r.id)
		}
	}
	for _, ids := range readsHere {
		sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	}

	// Plan edge rewrites against the original CFG: for each edge u->v that
	// exits, re-enters (back edge) or enters candidate loops, a trampoline
	// block carrying eloop/eoi/readstats/sloop instructions is spliced in.
	// The chains are planned into scratch, and then every trampoline is
	// allocated once, at its final length with its closing Br.
	ps := plans.Get()
	defer ps.release()
	chains, splices := ps.chains[:0], ps.splices[:0]
	inserted := 0
	for u := range f.Blocks {
		line := 0
		if t := f.Blocks[u].Terminator(); t != nil {
			line = t.Line
		}
		for _, v := range f.Blocks[u].Targets {
			start := len(chains)
			// Loops exited: candidates containing u but not v; innermost
			// first.
			for i := len(recs) - 1; i >= 0; i-- {
				r := recs[i]
				if !r.info.Candidate || !r.l.Contains(u) || r.l.Contains(v) {
					continue
				}
				chains = append(chains, tir.Instr{Op: tir.OpELoop, Loop: r.id, Imm: int64(r.info.NumLocals), Line: line})
				if opts.ReadStats {
					for _, id := range readsHere[r.id] {
						chains = append(chains, tir.Instr{Op: tir.OpReadStats, Loop: id, Line: line})
					}
				}
			}
			// Back edge: v is the header of a candidate loop containing u.
			for _, r := range recs {
				if r.info.Candidate && r.l.Header == v && r.l.Contains(u) {
					chains = append(chains, tir.Instr{Op: tir.OpEOI, Loop: r.id, Line: line})
				}
			}
			// Loop entered: v is the header of a candidate loop not
			// containing u.
			for _, r := range recs {
				if r.info.Candidate && r.l.Header == v && !r.l.Contains(u) {
					chains = append(chains, tir.Instr{Op: tir.OpSLoop, Loop: r.id, Imm: int64(r.info.NumLocals), Line: line})
				}
			}
			if len(chains) == start {
				continue
			}
			inserted += len(chains) - start
			// Each distinct (u,v) pair gets one trampoline; parallel
			// identical edges (a BrIf with equal targets) share it, with
			// the chain once per edge. A block has at most two targets,
			// so a repeated edge is the one planned just before.
			if n := len(splices); n > 0 && splices[n-1].from == u && splices[n-1].to == v {
				splices[n-1].end = len(chains)
			} else {
				splices = append(splices, splice{from: u, to: v, start: start, end: len(chains)})
			}
		}
	}
	ps.chains, ps.splices = chains, splices

	// Apply the planned splices, all trampolines' instructions and
	// targets carved out of one exact-size array each.
	instrs := make([]tir.Instr, 0, len(chains)+len(splices))
	targets := make([]int, len(splices))
	f.Blocks = slices.Grow(f.Blocks, len(splices))
	for i, sp := range splices {
		n := len(instrs)
		instrs = append(instrs, chains[sp.start:sp.end]...)
		instrs = append(instrs, tir.Instr{Op: tir.OpBr, Line: chains[sp.end-1].Line})
		targets[i] = sp.to
		nb := len(f.Blocks)
		f.Blocks = append(f.Blocks, tir.Block{Instrs: instrs[n:len(instrs):len(instrs)], Targets: targets[i : i+1 : i+1], Trampoline: true})
		for ti, t := range f.Blocks[sp.from].Targets {
			if t == sp.to {
				f.Blocks[sp.from].Targets[ti] = nb
			}
		}
	}

	// Local-variable annotations (lwl/swl) inside candidate loop blocks.
	if opts.Locals {
		inserted += insertLocalAnnotations(f, recs, opts.OptimizedLocals)
	}
	return inserted, nil
}

// splice is one planned trampoline: the edge it goes on and its chain,
// chains[start:end] of the plan scratch.
type splice struct{ from, to, start, end int }

// planScratch is applyFunc's reusable plan: every edge's chain of
// annotating instructions, back to back, and the trampolines to splice.
type planScratch struct {
	chains  []tir.Instr
	splices []splice
}

// plans holds idle plan scratch.
var plans freelist.List[planScratch]

// planKeep bounds the chain instructions an idle planScratch may keep
// (about 100 bytes each); one grown by an unusually large function is
// left to the collector.
const planKeep = 1 << 12

func (ps *planScratch) release() {
	if cap(ps.chains) <= planKeep {
		plans.Put(ps)
	}
}

// slotClasses lists sc's class for each slot the loop accesses, in
// slot order: the table jit.Build projects a loop's plan from.
func slotClasses(sc *scalar.LoopScalars) []tir.SlotClass {
	out := make([]tir.SlotClass, len(sc.Accessed))
	for i, slot := range sc.Accessed {
		out[i] = tir.SlotClass{Slot: int32(slot), Class: uint8(sc.Classes[slot])}
	}
	return out
}

// insertLocalAnnotations inserts lwl/swl before LdLoc/StLoc of slots that
// some enclosing candidate loop tracks. With optimized=true three sound
// elisions apply (the JIT optimizations behind Figure 6's second bars):
//
//   - only the first load of a slot per basic block gets an lwl — the
//     first load yields the shortest (critical) dependency arc, so later
//     loads in the block are redundant for the analysis;
//   - a load after a store of the same slot in the same block needs no
//     lwl — the dependency is intra-thread by construction;
//   - only the last store of a slot per basic block gets an swl — only
//     the latest store timestamp can be retrieved by a later thread.
func insertLocalAnnotations(f *tir.Function, recs []*loopRec, optimized bool) int {
	// trackedIn[b] = union of AnnLocals over candidate loops containing b.
	tracked := map[int]map[int]bool{}
	for _, r := range recs {
		if !r.info.Candidate {
			continue
		}
		for b := range r.l.Blocks {
			m := tracked[b]
			if m == nil {
				m = map[int]bool{}
				tracked[b] = m
			}
			for _, s := range r.info.AnnLocals {
				m[s] = true
			}
		}
	}
	inserted := 0
	for bi := range f.Blocks {
		m := tracked[bi]
		if len(m) == 0 {
			continue
		}
		old := f.Blocks[bi].Instrs
		// With optimization, find the last store of each slot in the
		// block: earlier store timestamps can never be retrieved.
		lastStore := map[int]int{}
		if optimized {
			for i := range old {
				if old[i].Op == tir.OpStLoc && m[old[i].Slot] {
					lastStore[old[i].Slot] = i
				}
			}
		}
		out := make([]tir.Instr, 0, len(old)+4)
		covered := map[int]bool{} // slot already annotated or stored here
		for i, in := range old {
			switch {
			case in.Op == tir.OpLdLoc && m[in.Slot]:
				if !optimized || !covered[in.Slot] {
					out = append(out, tir.Instr{Op: tir.OpLWL, Slot: in.Slot, Line: in.Line})
					covered[in.Slot] = true
					inserted++
				}
			case in.Op == tir.OpStLoc && m[in.Slot]:
				if !optimized || lastStore[in.Slot] == i {
					out = append(out, tir.Instr{Op: tir.OpSWL, Slot: in.Slot, Line: in.Line})
					inserted++
				}
				covered[in.Slot] = true
			}
			out = append(out, in)
		}
		f.Blocks[bi].Instrs = out
	}
	return inserted
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
