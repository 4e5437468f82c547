package jrpm_test

import (
	"testing"

	"jrpm"
	"jrpm/internal/core"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// TestHuffmanPipeline walks the paper's own running example (Figure 3 /
// Table 3) through the whole profiling pipeline and checks the headline
// behaviours: the decoder is correct, the outer loop carries critical arcs
// to the previous thread (the in_p dependency), both loops get estimates,
// and Equation 2 picks the outer loop.
func TestHuffmanPipeline(t *testing.T) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	in := w.NewInput(1)

	res, err := jrpm.Profile(w.Source, in, jrpm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// The derived clean baseline matches a real clean run.
	if cycles := runClean(t, w.Source, in).Cycles; cycles != res.CleanCycles {
		t.Fatalf("clean run %d cycles, derived %d", cycles, res.CleanCycles)
	}

	// The tracer should have found exactly two loops, nested.
	if len(res.Annotated.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(res.Annotated.Loops))
	}
	an := res.Analysis
	if len(an.Roots) != 1 {
		t.Fatalf("got %d root loops, want 1", len(an.Roots))
	}
	outer := an.Roots[0]
	if len(outer.Children) != 1 {
		t.Fatalf("outer loop has %d children, want 1", len(outer.Children))
	}
	inner := outer.Children[0]

	// The outer loop must exhibit the in_p critical arc to the previous
	// thread on essentially every iteration.
	os := outer.Stats
	if os == nil || os.Threads < 100 {
		t.Fatalf("outer stats missing or too few threads: %+v", os)
	}
	pairs := os.Threads - os.Entries
	if os.ArcCount[core.BinPrev] < pairs*9/10 {
		t.Fatalf("outer arc count %d over %d pairs: expected arcs on ~every iteration",
			os.ArcCount[core.BinPrev], pairs)
	}

	// Estimates: the outer loop should promise a real speedup; the inner
	// loop is tiny and dependency-bound, so it must not beat the outer.
	if outer.Est.Speedup <= 1.1 {
		t.Fatalf("outer estimated speedup %.2f, expected > 1.1", outer.Est.Speedup)
	}
	if !outer.Selected {
		t.Fatalf("Equation 2 did not select the outer loop (outer %.2fx, inner %.2fx)",
			outer.Est.Speedup, inner.Est.Speedup)
	}
	if inner.Selected {
		t.Fatal("inner loop selected alongside outer: decompositions must be exclusive")
	}

	// Profiling overhead should be the paper's "minor slowdown", far from
	// the >100x of software profiling.
	if s := res.Slowdown(); s < 1.0 || s > 1.6 {
		t.Fatalf("profiling slowdown %.2fx outside plausible range", s)
	}
}

// runClean compiles src with the default options and runs its clean
// program.
func runClean(t *testing.T, src string, in jrpm.Input) *vmsim.VM {
	t.Helper()
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := jrpm.NewVM(c.Clean, in, opts.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	return vm
}

// TestHuffmanDecodesCorrectly runs the kernel clean and validates output.
func TestHuffmanDecodesCorrectly(t *testing.T) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(runClean(t, w.Source, w.NewInput(0.5))); err != nil {
		t.Fatal(err)
	}
}
