package jrpm_test

import (
	"os"
	"reflect"
	"testing"

	"jrpm"
	"jrpm/internal/annotate"
	"jrpm/internal/corpus"
	"jrpm/internal/lang"
	"jrpm/internal/opt"
	"jrpm/internal/tir"
	"jrpm/internal/trace"
	"jrpm/internal/workloads"
)

// twoPassCompile is the compile stage as it was before Compile ran the
// front end once: two independent lex/parse/codegen/opt passes, one
// annotated with no instrumentation to fill the clean program's loop
// table, the other annotated per opts.Annot.
func twoPassCompile(t *testing.T, src string, opts jrpm.Options) (clean, annotated *tir.Program, nAnnot int) {
	t.Helper()
	opts = jrpm.Normalize(opts)
	frontEnd := func() *tir.Program {
		p, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Optimize {
			opt.Program(p)
		}
		return p
	}
	clean = frontEnd()
	if _, err := annotate.Apply(clean, annotate.Options{}); err != nil {
		t.Fatal(err)
	}
	annotated = frontEnd()
	nAnnot, err := annotate.Apply(annotated, opts.Annot)
	if err != nil {
		t.Fatal(err)
	}
	return clean, annotated, nAnnot
}

// checkFrontEnd requires Compile's artifact to equal the two-pass
// construction: Annotated identical in every field, hash, PC count and
// annotation count, and Clean identical to a fresh front-end pass (and
// to the two-pass clean program but for its loop table).
func checkFrontEnd(t *testing.T, src string, opts jrpm.Options) {
	t.Helper()
	c, err := jrpm.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, annotated, nAnnot := twoPassCompile(t, src, opts)
	if !reflect.DeepEqual(c.Annotated, annotated) {
		t.Fatalf("Annotated differs from the two-pass build:\n%s\nwant:\n%s",
			tir.DisasmProgram(c.Annotated), tir.DisasmProgram(annotated))
	}
	if trace.ProgramHash(c.Annotated) != trace.ProgramHash(annotated) {
		t.Fatal("Annotated program hash differs from the two-pass build")
	}
	if c.Annotated.NumPCs != annotated.NumPCs || c.AnnotationCount != nAnnot {
		t.Fatalf("NumPCs %d, annotations %d; two-pass build %d, %d",
			c.Annotated.NumPCs, c.AnnotationCount, annotated.NumPCs, nAnnot)
	}

	if c.Clean.Loops != nil {
		t.Fatalf("Clean carries a loop table of %d loops", len(c.Clean.Loops))
	}
	fresh, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Optimize {
		opt.Program(fresh)
	}
	if !reflect.DeepEqual(c.Clean, fresh) {
		t.Fatal("Clean differs from a fresh front-end pass")
	}
	clean.Loops = nil
	if !reflect.DeepEqual(c.Clean, clean) {
		t.Fatal("Clean differs from the two-pass clean program beyond its loop table")
	}
}

// TestSingleFrontEndEquivalence proves that annotating a clone of the
// clean program equals compiling the source a second time: for every
// kernel, annotation preset and optimizer setting, every default-corpus
// program, and the nested-return program.
func TestSingleFrontEndEquivalence(t *testing.T) {
	presets := []struct {
		name string
		opts annotate.Options
	}{
		{"optimized", annotate.Optimized()},
		{"base", annotate.Base()},
		{"markers", annotate.Options{LoopMarkers: true}},
		{"markers+locals", annotate.Options{LoopMarkers: true, Locals: true}},
	}
	for _, w := range workloads.All() {
		t.Run("kernel/"+w.Meta.Name, func(t *testing.T) {
			for _, optimize := range []bool{false, true} {
				for _, p := range presets {
					opts := jrpm.DefaultOptions()
					opts.Annot = p.opts
					opts.Optimize = optimize
					checkFrontEnd(t, w.Source, opts)
				}
			}
		})
	}

	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("corpus/default", func(t *testing.T) {
		for _, p := range progs {
			checkFrontEnd(t, p.Source, jrpm.DefaultOptions())
		}
	})

	t.Run("nested_return", func(t *testing.T) {
		src, err := os.ReadFile("internal/vmsim/testdata/corpus/nested_return.jr")
		if err != nil {
			t.Fatal(err)
		}
		checkFrontEnd(t, string(src), jrpm.DefaultOptions())
	})
}
