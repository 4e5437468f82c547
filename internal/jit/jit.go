// Package jit models the speculative recompilation step (section 3.2):
// once TEST has chosen the best STLs, the dynamic compiler re-emits them
// as speculative threads, inserting the control routines of Table 2 and
// applying the scalar transformations the paper lists — globalizing
// inter-thread dependent local variables, register-allocating loop
// invariants, rewriting loop inductors as non-violating iterators, and
// transforming sum/min-max reductions.
//
// In this reproduction the transformations are semantic facts consumed by
// the TLS simulator rather than machine-code rewrites: inductors and
// reductions carry no recorded dependencies (they are eliminated), and
// globalized locals synchronize through store->load communication instead
// of violating. Build reads, per selected loop, exactly which variables
// fall in which class from the scalar screen's table (tir.LoopInfo.
// Scalars, filled by annotate), so reports and the simulator agree with
// what a real recompiler would have done; as in the paper, the
// recompiler applies the classes the screen already computed.
package jit

import (
	"fmt"
	"sort"
	"strings"

	"jrpm/internal/hydra"
	"jrpm/internal/scalar"
	"jrpm/internal/tir"
)

// LoopPlan is the recompilation plan for one selected STL.
type LoopPlan struct {
	Loop int
	Name string
	// Globalized lists locals with potential inter-thread dependencies,
	// moved to shared storage and synchronized.
	Globalized []string
	// Inductors are rewritten as non-violating loop iterators
	// (incremented in the end-of-iteration routine).
	Inductors []string
	// Reductions are privatized per thread and merged at loop shutdown.
	Reductions []string
	// Invariants are register-allocated at loop startup.
	Invariants []string
	// Privatized locals are written before read every iteration; each
	// thread keeps a private copy.
	Privatized []string
	// StartupCycles/ShutdownCycles/IterCycles are the inserted control
	// routine costs (Table 2).
	StartupCycles  int64
	ShutdownCycles int64
	IterCycles     int64
}

// Plan is a full recompilation plan.
type Plan struct {
	Loops []LoopPlan
}

// Build computes the recompilation plan for the selected loops of an
// annotated program. It analyzes nothing: each loop's plan is a
// projection of the classes annotate recorded for it.
func Build(prog *tir.Program, selected []int, cfg_ hydra.Config) (*Plan, error) {
	p := &Plan{}
	sorted := append([]int(nil), selected...)
	sort.Ints(sorted)
	for _, id := range sorted {
		if id < 0 || id >= len(prog.Loops) {
			return nil, fmt.Errorf("jit: no loop L%d", id)
		}
		info := &prog.Loops[id]
		if !info.Candidate {
			return nil, fmt.Errorf("jit: loop L%d (%s) was rejected by the scalar screen: %s",
				id, info.Name, info.Reject)
		}
		p.Loops = append(p.Loops, planLoop(prog.Funcs[info.Func], info, cfg_))
	}
	return p, nil
}

// planLoop projects a loop's plan from the classes the scalar screen
// recorded for it at annotation time (tir.LoopInfo.Scalars) and the
// Table 2 control-routine costs of cfg_.
func planLoop(f *tir.Function, info *tir.LoopInfo, cfg_ hydra.Config) LoopPlan {
	lp := LoopPlan{
		Loop:           info.ID,
		Name:           info.Name,
		StartupCycles:  cfg_.Overheads.LoopStartup,
		ShutdownCycles: cfg_.Overheads.LoopShutdown,
		IterCycles:     cfg_.Overheads.EndOfIter,
	}
	for _, sc := range info.Scalars {
		name := f.Locals[sc.Slot].Name
		switch scalar.Class(sc.Class) {
		case scalar.ClassInductor:
			lp.Inductors = append(lp.Inductors, name)
		case scalar.ClassReduction:
			lp.Reductions = append(lp.Reductions, name)
		case scalar.ClassInvariant:
			lp.Invariants = append(lp.Invariants, name)
		case scalar.ClassPrivate:
			lp.Privatized = append(lp.Privatized, name)
		default:
			lp.Globalized = append(lp.Globalized, name)
		}
	}
	return lp
}

// ByLoop returns the plan for one loop id, or nil when the loop is not
// part of this plan.
func (p *Plan) ByLoop(id int) *LoopPlan {
	for i := range p.Loops {
		if p.Loops[i].Loop == id {
			return &p.Loops[i]
		}
	}
	return nil
}

// Summary renders one loop plan as a single line — the transformation
// classes with their variable counts, in the order the recompiler applies
// them. Adaptive callers stamp this on promotion records so every tier
// transition names the code transformation it bought.
func (lp *LoopPlan) Summary() string {
	parts := make([]string, 0, 5)
	add := func(label string, vars []string) {
		if len(vars) > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", len(vars), label))
		}
	}
	add("globalized", lp.Globalized)
	add("inductors", lp.Inductors)
	add("reductions", lp.Reductions)
	add("invariants", lp.Invariants)
	add("privatized", lp.Privatized)
	if len(parts) == 0 {
		return "no scalar rewrites"
	}
	return strings.Join(parts, ", ")
}

// String renders the plan as a report.
func (p *Plan) String() string {
	var sb strings.Builder
	for _, lp := range p.Loops {
		fmt.Fprintf(&sb, "L%d (%s): startup %d, shutdown %d, eoi %d cycles\n",
			lp.Loop, lp.Name, lp.StartupCycles, lp.ShutdownCycles, lp.IterCycles)
		if len(lp.Globalized) > 0 {
			fmt.Fprintf(&sb, "  globalized + synchronized: %s\n", strings.Join(lp.Globalized, ", "))
		}
		if len(lp.Inductors) > 0 {
			fmt.Fprintf(&sb, "  non-violating inductors:   %s\n", strings.Join(lp.Inductors, ", "))
		}
		if len(lp.Reductions) > 0 {
			fmt.Fprintf(&sb, "  transformed reductions:    %s\n", strings.Join(lp.Reductions, ", "))
		}
		if len(lp.Invariants) > 0 {
			fmt.Fprintf(&sb, "  register-alloc invariants: %s\n", strings.Join(lp.Invariants, ", "))
		}
		if len(lp.Privatized) > 0 {
			fmt.Fprintf(&sb, "  privatized locals:         %s\n", strings.Join(lp.Privatized, ", "))
		}
	}
	return sb.String()
}
