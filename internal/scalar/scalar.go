// Package scalar implements the simple scalar screen of section 4.1:
//
//	"Any loop without obvious loop-carried dependencies that would
//	 completely eliminate speedup (e.g. end-of-loop store and
//	 start-of-loop load) is considered a potential STL. Loop inductors,
//	 which are dependencies that can be eliminated by the compiler, are
//	 ignored so that potentially parallel loops are not overlooked.
//	 Scalar analysis is used to identify simple dependencies, but we forgo
//	 advanced techniques."
//
// The analysis classifies each named local touched by a loop as an
// inductor, a reduction, or a plain scalar. Inductors and reductions are
// excluded from the loop's annotated local-variable set because the JIT
// eliminates them when the loop is recompiled speculatively
// (non-violating loop inductors; sum/min/max reduction transformation).
//
// A variable is an inductor of loop L only when every store is i = i ± c
// with a constant c AND executes exactly once per iteration of L (its
// block is in L, outside any loop nested in L, and dominates L's
// latches). This distinction matters: in the paper's Huffman example
// (Figure 3) in_p++ sits inside the inner loop, so for the outer loop
// in_p advances a data-dependent amount per iteration — a real
// loop-carried dependency, and indeed the critical arc the tracer must
// find — while for the inner loop the same update is a plain eliminable
// iterator.
package scalar

import (
	"jrpm/internal/cfg"
	"jrpm/internal/freelist"
	"jrpm/internal/tir"
)

// Class is the classification of one named local with respect to a loop.
type Class uint8

// Classifications.
const (
	// ClassPlain scalars carry potential loop-borne dependencies: they are
	// annotated for tracing and globalized + synchronized by the
	// recompiler.
	ClassPlain Class = iota
	// ClassInductor variables are i = i ± const once per iteration,
	// rewritten as non-violating iterators.
	ClassInductor
	// ClassReduction accumulators (s = s OP e, never otherwise read) are
	// privatized and merged at loop shutdown.
	ClassReduction
	// ClassInvariant locals are never stored in the loop: they are
	// register-allocated at loop startup and can never cause a dependency.
	ClassInvariant
	// ClassPrivate locals are written before any read in the loop header,
	// so every iteration sees only its own value; each thread gets a
	// private copy.
	ClassPrivate
)

func (c Class) String() string {
	switch c {
	case ClassInductor:
		return "inductor"
	case ClassReduction:
		return "reduction"
	case ClassInvariant:
		return "invariant"
	case ClassPrivate:
		return "private"
	default:
		return "plain"
	}
}

// LoopScalars is the scalar-analysis result for one natural loop.
type LoopScalars struct {
	// Accessed lists every named-local slot read or written inside the
	// loop, ascending.
	Accessed []int
	// Classes maps each accessed slot to its classification.
	Classes map[int]Class
	// Annotated lists the slots the annotation pass should track for this
	// loop: Accessed minus inductors and reductions.
	Annotated []int
	// Reject is non-empty when the screen drops the loop from the
	// potential-STL set, with the reason.
	Reject string
}

// slotStats counts one named local's accesses inside the loop.
type slotStats struct {
	loads, stores int
	selfOp        int  // stores of the form s = s OP x
	indOp         int  // stores of the form s = s ± const
	selfLoads     int  // LdLoc instructions feeding a self-update
	notOnce       bool // some store may run other than once per iteration
}

// analyzer is the state of Analyze. Its scratch slices are indexed by
// slot, register (+1, so NoReg is 0), instruction or block; an analyzer
// comes from a free list, so they are reused across the loop's blocks,
// across loops and across calls rather than reallocated.
type analyzer struct {
	f      *tir.Function
	l      *cfg.Loop
	g      *cfg.Graph
	forest *cfg.Forest
	idom   []int
	blocks []int // the loop's blocks, ascending
	st     []slotStats

	// Per-block scratch for analyzeBlock. An entry is live only while
	// its gen equals the current block's gen, so starting a block
	// clears them all at once. gen only grows, over every block this
	// analyzer has seen, so entries left by an earlier loop or call are
	// dead too and nothing is ever cleared.
	gen  int
	regs []regState
	used []int // LdLoc index -> gen in which it fed a self-update

	facts []blockFacts // scratch for definedBeforeUsed
}

// analyzers holds idle analyzers.
var analyzers freelist.List[analyzer]

// analyzerKeep bounds the entries an idle analyzer's files may hold,
// summed over slots, registers, instructions and blocks (up to 72 bytes
// an entry); one grown by an unusually large function is left to the
// collector.
const analyzerKeep = 1 << 14

// release drops a's references to the analyzed function and gives it
// back to the free list unless its files outgrew analyzerKeep.
func (a *analyzer) release() {
	a.f, a.l, a.g, a.forest, a.idom = nil, nil, nil, nil, nil
	if cap(a.st)+cap(a.regs)+cap(a.used)+cap(a.blocks)+cap(a.facts) <= analyzerKeep {
		analyzers.Put(a)
	}
}

// grow returns s with length n, its old contents kept, reallocating only
// when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// regState is what analyzeBlock knows about one register.
type regState struct {
	def   def
	chain chain
}

// def records what a register holds: a constant, or the value of a
// LdLoc of slot, which the next store of the slot overwrites.
type def struct {
	gen     int
	slot    int // -1 if not a direct LdLoc value
	stores  int // the slot's store count at the LdLoc
	isConst bool
	ldIdx   int // instruction index of the LdLoc
}

// chain records a "LdLoc(slot) OP x" result.
type chain struct {
	gen   int
	slot  int
	ind   bool // OP is ± with a constant other operand
	ldIdx int
}

// Analyze classifies the named locals of loop l in function f. The graph
// and forest must be the ones l came from.
func Analyze(f *tir.Function, l *cfg.Loop, g *cfg.Graph, forest *cfg.Forest) *LoopScalars {
	a := analyzers.Get()
	defer a.release()
	a.f, a.l, a.g, a.forest = f, l, g, forest
	a.idom = g.Dominators()
	a.st = grow(a.st[:0], len(f.Locals))
	clear(a.st)
	a.regs = grow(a.regs, f.NumRegs+1)
	a.blocks = a.blocks[:0]
	for bi := range f.Blocks {
		if l.Blocks[bi] {
			a.blocks = append(a.blocks, bi)
			a.analyzeBlock(bi)
		}
	}

	res := &LoopScalars{Classes: map[int]Class{}}
	for s := range a.st {
		st := &a.st[s]
		if st.loads == 0 && st.stores == 0 {
			continue
		}
		res.Accessed = append(res.Accessed, s)
		cls := ClassPlain
		switch {
		case st.stores == 0:
			cls = ClassInvariant
		case st.indOp == st.stores && !st.notOnce:
			cls = ClassInductor
		case st.selfOp == st.stores && st.loads == st.selfLoads && st.loads == st.stores:
			cls = ClassReduction
		case a.definedBeforeUsed(s):
			cls = ClassPrivate
		}
		res.Classes[s] = cls
		if cls == ClassPlain {
			res.Annotated = append(res.Annotated, s)
		}
	}

	res.Reject = screen(f, l, res, a.st)
	return res
}

// oncePerIter reports whether block b runs exactly once per iteration of
// the loop: it lies outside every loop nested in it and dominates all of
// its latches.
func (a *analyzer) oncePerIter(b int) bool {
	if inNestedLoop(b, a.l, a.forest) {
		return false
	}
	for _, latch := range a.l.Latches {
		if !cfg.Dominates(a.idom, b, latch) {
			return false
		}
	}
	return true
}

// blockFacts are one block's facts about a slot for definedBeforeUsed.
type blockFacts struct {
	upUse    bool // a load before any store of the slot
	hasStore bool
	defIn    bool // the slot is defined on every path into the block
}

// definedBeforeUsed reports whether every load of slot inside the loop is
// preceded, on every path from the loop header, by a store of the slot in
// the same iteration — the classic privatization condition ("local
// variable initializers are communicated to each thread"). It is a
// must-define forward dataflow over the loop body with the header entry
// forced undefined, so a value can never be observed across an iteration
// boundary.
func (a *analyzer) definedBeforeUsed(slot int) bool {
	a.facts = grow(a.facts, len(a.f.Blocks))
	// Per-block facts: does the block have a load before any store of the
	// slot (upward-exposed use), and does it store the slot at all?
	// Optimistic must-define iteration: defIn true unless proven
	// otherwise; the header entry is undefined (iteration start).
	anyStore := false
	for _, b := range a.blocks {
		bf := blockFacts{defIn: b != a.l.Header}
		for i := range a.f.Blocks[b].Instrs {
			in := &a.f.Blocks[b].Instrs[i]
			if in.Op == tir.OpStLoc && in.Slot == slot {
				bf.hasStore = true
			}
			if in.Op == tir.OpLdLoc && in.Slot == slot && !bf.hasStore {
				bf.upUse = true
			}
		}
		anyStore = anyStore || bf.hasStore
		a.facts[b] = bf
	}
	changed := true
	for changed {
		changed = false
		for _, b := range a.blocks {
			in := b != a.l.Header
			if in {
				for _, p := range a.g.Preds[b] {
					if a.l.Blocks[p] && !a.facts[p].defIn && !a.facts[p].hasStore {
						in = false
						break
					}
				}
			}
			if in != a.facts[b].defIn {
				a.facts[b].defIn = in
				changed = true
			}
		}
	}
	for _, b := range a.blocks {
		if a.facts[b].upUse && !a.facts[b].defIn {
			return false
		}
	}
	// A slot never loaded in the loop is trivially private, but that case
	// is classified earlier; require at least one store so ClassPrivate
	// only applies to written variables.
	return anyStore
}

// inNestedLoop reports whether block b belongs to a loop strictly nested
// inside l.
func inNestedLoop(b int, l *cfg.Loop, forest *cfg.Forest) bool {
	for _, m := range forest.Loops {
		if m == l || !m.Blocks[b] {
			continue
		}
		if l.Blocks[m.Header] {
			return true
		}
	}
	return false
}

// analyzeBlock performs a single pass over block bi, tracking, per
// register, whether it currently holds the value of a LdLoc of some slot
// or a constant, in order to pattern-match self-updates.
func (a *analyzer) analyzeBlock(bi int) {
	instrs := a.f.Blocks[bi].Instrs
	a.gen++
	gen := a.gen
	a.used = grow(a.used, len(instrs))
	// slotDef returns r's def, if r holds a constant or a LdLoc value
	// that no store of its slot has since overwritten.
	slotDef := func(r tir.Reg) (def, bool) {
		d := a.regs[r+1].def
		if d.gen != gen || d.slot >= 0 && a.st[d.slot].stores != d.stores {
			return def{}, false
		}
		return d, true
	}
	once, onceKnown := false, false // a.oncePerIter(bi), found at the first store

	for idx := range instrs {
		in := &instrs[idx]
		switch in.Op {
		case tir.OpLdLoc:
			a.st[in.Slot].loads++
			a.regs[in.Dst+1] = regState{def: def{gen: gen, slot: in.Slot, stores: a.st[in.Slot].stores, ldIdx: idx}}
		case tir.OpConstI, tir.OpConstF:
			a.regs[in.Dst+1] = regState{def: def{gen: gen, slot: -1, isConst: true}}
		case tir.OpAdd, tir.OpSub, tir.OpFAdd, tir.OpFSub, tir.OpMul, tir.OpFMul:
			da, aok := slotDef(in.A)
			db, bok := slotDef(in.B)
			c := chain{slot: -1}
			addSub := in.Op == tir.OpAdd || in.Op == tir.OpSub || in.Op == tir.OpFAdd || in.Op == tir.OpFSub
			if aok && da.slot >= 0 {
				c = chain{gen: gen, slot: da.slot, ind: addSub && bok && db.isConst, ldIdx: da.ldIdx}
			} else if bok && db.slot >= 0 && in.Op != tir.OpSub && in.Op != tir.OpFSub {
				c = chain{gen: gen, slot: db.slot, ind: addSub && aok && da.isConst, ldIdx: db.ldIdx}
			}
			a.regs[in.Dst+1] = regState{def: def{gen: gen, slot: -1}, chain: c}
		case tir.OpStLoc:
			st := &a.st[in.Slot]
			st.stores++ // also retires every def holding the slot's old value
			if !onceKnown {
				once, onceKnown = a.oncePerIter(bi), true
			}
			st.notOnce = st.notOnce || !once
			if c := a.regs[in.A+1].chain; c.gen == gen && c.slot == in.Slot {
				st.selfOp++
				if c.ind {
					st.indOp++
				}
				if a.used[c.ldIdx] != gen {
					a.used[c.ldIdx] = gen
					st.selfLoads++
				}
			}
		default:
			if writesDst(in.Op) {
				a.regs[in.Dst+1] = regState{def: def{gen: gen, slot: -1}}
			}
		}
	}
}

// writesDst reports whether op defines its Dst register (instructions like
// Br, Store or the annotations leave Dst zero-valued but meaningless).
func writesDst(op tir.Op) bool {
	switch op {
	case tir.OpStore, tir.OpStLoc, tir.OpBr, tir.OpBrIf, tir.OpRet, tir.OpPrint,
		tir.OpNop, tir.OpSLoop, tir.OpELoop, tir.OpEOI, tir.OpLWL, tir.OpSWL, tir.OpReadStats:
		return false
	case tir.OpCall:
		return true // Dst may be NoReg, which has its own scratch entry
	default:
		return true
	}
}

// screen applies the obvious-serialization rejection: a plain scalar that
// is loaded at the very start of the loop header and stored in every
// latch block (after its last load there) forms an end-of-loop-store ->
// start-of-loop-load recurrence whose dependency arc spans the whole
// iteration, eliminating any speedup.
func screen(f *tir.Function, l *cfg.Loop, res *LoopScalars, st []slotStats) string {
	header := f.Blocks[l.Header].Instrs
	for _, slot := range res.Annotated {
		if st[slot].stores == 0 {
			continue
		}
		headLoad := false
		for i := range header {
			if header[i].Op == tir.OpStLoc && header[i].Slot == slot {
				break
			}
			if header[i].Op == tir.OpLdLoc && header[i].Slot == slot {
				headLoad = true
				break
			}
		}
		if !headLoad {
			continue
		}
		tail := true
		for _, latch := range l.Latches {
			instrs := f.Blocks[latch].Instrs
			lastStore, lastLoad := -1, -1
			for i := range instrs {
				if instrs[i].Op == tir.OpStLoc && instrs[i].Slot == slot {
					lastStore = i
				}
				if instrs[i].Op == tir.OpLdLoc && instrs[i].Slot == slot {
					lastLoad = i
				}
			}
			if lastStore == -1 || lastStore < lastLoad {
				tail = false
				break
			}
		}
		if tail {
			return "serial scalar recurrence on " + f.Locals[slot].Name
		}
	}
	return ""
}
