package jrpm_test

import (
	"context"
	"os"
	"sort"
	"testing"

	"jrpm"
	"jrpm/internal/annotate"
	"jrpm/internal/corpus"
	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim/refvm"
	"jrpm/internal/workloads"
)

// identityScale keeps the 26-kernel sweep (416 profiles, each checked on
// both engines) to a few seconds.
const identityScale = 0.25

// refRun runs prog on the reference engine with cfg's annotation costs,
// binding in the way jrpm.NewVM does (ints, then floats, each sorted).
func refRun(t *testing.T, prog *tir.Program, in jrpm.Input, cfg hydra.Config) *refvm.VM {
	t.Helper()
	vm := refvm.New(prog)
	vm.AnnotCost = cfg.Tracer.AnnotCost
	vm.ReadStatsCost = cfg.Tracer.ReadStatsCost
	for _, name := range sortedNames(in.Ints) {
		if err := vm.BindGlobalInts(name, in.Ints[name]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range sortedNames(in.Floats) {
		if err := vm.BindGlobalFloats(name, in.Floats[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	return vm
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// measuredClean runs c.Clean on both engines and requires they agree.
func measuredClean(t *testing.T, c *jrpm.Compiled, in jrpm.Input, cfg hydra.Config) int64 {
	t.Helper()
	vm, err := jrpm.NewVM(c.Clean, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	if ref := refRun(t, c.Clean, in, cfg); ref.Cycles != vm.Cycles {
		t.Fatalf("clean cycles: predecode %d, refvm %d", vm.Cycles, ref.Cycles)
	}
	return vm.Cycles
}

// checkIdentity profiles c under opts and requires the derived
// CleanCycles to equal the measured clean run, both as Profile reports
// it (predecode) and as the same identity over the reference engine's
// counters for the annotated program.
func checkIdentity(t *testing.T, c *jrpm.Compiled, in jrpm.Input, opts jrpm.Options, clean int64) {
	t.Helper()
	pr, err := c.Profile(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pr.CleanCycles != clean {
		t.Errorf("Profile CleanCycles %d, clean run %d (traced %d)", pr.CleanCycles, clean, pr.TracedCycles)
	}
	tc := opts.Cfg.Tracer
	ref := refRun(t, c.Annotated, in, opts.Cfg)
	derived := ref.Cycles - tc.AnnotCost*(ref.NLoopAnnot+ref.NLocalAnnot) -
		tc.ReadStatsCost*ref.NReadStats - ref.NTrampolines
	if derived != clean {
		t.Errorf("refvm-derived clean cycles %d, clean run %d", derived, clean)
	}
	if ref.Cycles != pr.TracedCycles {
		t.Errorf("traced cycles: predecode %d, refvm %d", pr.TracedCycles, ref.Cycles)
	}
}

// TestCleanCyclesIdentity is the proof behind profiling with one VM
// execution: for every kernel, annotation preset, cost pair and
// optimizer setting, and every default-corpus program, the clean cycles
// derived from the traced run equal an actual run of Compiled.Clean on
// both engines.
func TestCleanCyclesIdentity(t *testing.T) {
	presets := []struct {
		name string
		opts annotate.Options
	}{
		{"optimized", annotate.Optimized()},
		{"base", annotate.Base()},
		{"markers", annotate.Options{LoopMarkers: true}},
		{"markers+locals", annotate.Options{LoopMarkers: true, Locals: true}},
	}
	def := hydra.DefaultConfig().Tracer
	costs := []struct{ annot, readStats int64 }{
		{def.AnnotCost, def.ReadStatsCost},
		{3, 5},
	}

	for _, w := range workloads.All() {
		t.Run("kernel/"+w.Meta.Name, func(t *testing.T) {
			in := w.NewInput(identityScale)
			for _, optimize := range []bool{false, true} {
				clean := int64(-1)
				for _, p := range presets {
					opts := jrpm.DefaultOptions()
					opts.Annot = p.opts
					opts.Optimize = optimize
					c, err := jrpm.Compile(w.Source, opts)
					if err != nil {
						t.Fatal(err)
					}
					if clean < 0 {
						clean = measuredClean(t, c, in, opts.Cfg)
					}
					for _, cp := range costs {
						opts.Cfg.Tracer.AnnotCost = cp.annot
						opts.Cfg.Tracer.ReadStatsCost = cp.readStats
						checkIdentity(t, c, in, opts, clean)
					}
				}
			}
		})
	}

	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("corpus/default", func(t *testing.T) {
		opts := jrpm.DefaultOptions()
		for _, p := range progs {
			c, err := jrpm.Compile(p.Source, opts)
			if err != nil {
				t.Fatal(err)
			}
			in := p.Input()
			checkIdentity(t, c, in, opts, measuredClean(t, c, in, opts.Cfg))
		}
	})

	// The nested-return shape is why the trampoline counter exists: one
	// trampoline there carries two eloops, so counting loop annotations
	// in its place undercounts the jumps.
	t.Run("nested_return", func(t *testing.T) {
		src, err := os.ReadFile("internal/vmsim/testdata/corpus/nested_return.jr")
		if err != nil {
			t.Fatal(err)
		}
		opts := jrpm.DefaultOptions()
		c, err := jrpm.Compile(string(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		in := jrpm.Input{Ints: map[string][]int64{"a": make([]int64, 64), "out": make([]int64, 8)}}
		for i := range in.Ints["a"] {
			in.Ints["a"][i] = int64(i * 7 % 50)
		}
		checkIdentity(t, c, in, opts, measuredClean(t, c, in, opts.Cfg))
		vm, err := jrpm.NewVM(c.Annotated, in, opts.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Run("main"); err != nil {
			t.Fatal(err)
		}
		if vm.NTrampolines == vm.NLoopAnnot {
			t.Errorf("NTrampolines == NLoopAnnot == %d: no trampoline carried two loop annotations", vm.NTrampolines)
		}
	})
}
