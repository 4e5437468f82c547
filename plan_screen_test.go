package jrpm_test

import (
	"reflect"
	"strconv"
	"testing"

	"jrpm"
	"jrpm/internal/cfg"
	"jrpm/internal/corpus"
	"jrpm/internal/hydra"
	"jrpm/internal/jit"
	"jrpm/internal/scalar"
	"jrpm/internal/tir"
	"jrpm/internal/workloads"
)

// analyzedPlan is the recompilation plan as jit.Build made it before it
// read the screen's table: scalar analysis of each selected loop, run
// again on the annotated program.
func analyzedPlan(t *testing.T, prog *tir.Program, ids []int, hc hydra.Config) *jit.Plan {
	t.Helper()
	p := &jit.Plan{}
	for _, id := range ids {
		info := &prog.Loops[id]
		f := prog.Funcs[info.Func]
		g := cfg.Build(f)
		forest := g.NaturalLoops()
		l := forest.ByHeader[info.Header]
		if l == nil {
			t.Fatalf("loop L%d: header b%d is no loop header of the annotated %s", id, info.Header, f.Name)
		}
		sc := scalar.Analyze(f, l, g, forest)
		lp := jit.LoopPlan{
			Loop:           id,
			Name:           info.Name,
			StartupCycles:  hc.Overheads.LoopStartup,
			ShutdownCycles: hc.Overheads.LoopShutdown,
			IterCycles:     hc.Overheads.EndOfIter,
		}
		for _, slot := range sc.Accessed {
			name := f.Locals[slot].Name
			switch sc.Classes[slot] {
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
		p.Loops = append(p.Loops, lp)
	}
	return p
}

// checkPlanFromScreen requires jit.Build's projection of the screen's
// classes to equal a fresh analysis of the annotated program, over every
// candidate loop of src compiled with opts. It returns the number of
// loops compared.
func checkPlanFromScreen(t *testing.T, name, src string, opts jrpm.Options) int {
	t.Helper()
	c, err := jrpm.Compile(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prog := c.Annotated
	var ids []int
	for i := range prog.Loops {
		if prog.Loops[i].Candidate {
			ids = append(ids, i)
		}
	}
	hc := hydra.DefaultConfig()
	got, err := jit.Build(prog, ids, hc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := analyzedPlan(t, prog, ids, hc); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (optimize %v): plan from the screen\n%s\ndiffers from a fresh analysis\n%s",
			name, opts.Optimize, got, want)
	}
	return len(ids)
}

// TestPlanFromScreen: the scalar classes annotate records for each loop,
// taken on the program before it inserts any annotation, are exactly
// what scalar analysis finds on the annotated program, so jit.Build can
// project its plans from them. It covers every candidate loop of the 26
// kernels and the 500 default-corpus programs, with the optimizer on and
// off.
func TestPlanFromScreen(t *testing.T) {
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	loops := 0
	for _, optimize := range []bool{false, true} {
		opts := jrpm.DefaultOptions()
		opts.Optimize = optimize
		for _, w := range workloads.All() {
			loops += checkPlanFromScreen(t, w.Meta.Name, w.Source, opts)
		}
		for i, p := range progs {
			loops += checkPlanFromScreen(t, "corpus program "+strconv.Itoa(i), p.Source, opts)
		}
	}
	t.Logf("%d candidate loops compared", loops)
}
