package jrpm_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"jrpm"
	"jrpm/internal/workloads"
)

// TestCompiledSharedAcrossGoroutines enforces the tir.Program concurrency
// contract: one Compiled artifact, shared read-only by many workers, each
// with its own VM and Tracer, profiled under the race detector. Every
// worker must report identical cycle counts and the same selected-STL
// set.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	in := w.NewInput(0.3)
	opts := jrpm.DefaultOptions()

	compiled, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}

	n := 2 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	type outcome struct {
		clean, traced int64
		selected      string
		err           error
	}
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pr, err := compiled.Profile(context.Background(), in, opts)
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			results[i] = outcome{
				clean:    pr.CleanCycles,
				traced:   pr.TracedCycles,
				selected: fmt.Sprint(pr.Analysis.SelectedLoopIDs()),
			}
		}(i)
	}
	wg.Wait()

	ref := results[0]
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	if ref.selected == "[]" {
		t.Fatal("no STL selected: the comparison below would be vacuous")
	}
	for i, r := range results[1:] {
		if r.err != nil {
			t.Fatalf("worker %d: %v", i+1, r.err)
		}
		if r != ref {
			t.Fatalf("worker %d diverged: got %+v, want %+v", i+1, r, ref)
		}
	}
}

// TestProfileDeterminismAcrossWorkers runs the complete pipeline — its
// own compile included — on N parallel workers and requires bit-identical
// CleanCycles, TracedCycles and selected-STL sets, plus identical TLS
// simulation outcomes. With -race this doubles as the subsystem's
// data-race audit.
func TestProfileDeterminismAcrossWorkers(t *testing.T) {
	for _, name := range []string{"Huffman", "NumHeapSort"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in := w.NewInput(0.25)

		const n = 6
		sigs := make([]string, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := jrpm.Run(w.Source, in, jrpm.DefaultOptions())
				if err != nil {
					errs[i] = err
					return
				}
				pr := res.Profile
				sigs[i] = fmt.Sprintf("clean=%d traced=%d selected=%v actual=%.6f",
					pr.CleanCycles, pr.TracedCycles, pr.Analysis.SelectedLoopIDs(), res.ActualSpeedup)
			}(i)
		}
		wg.Wait()

		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("%s worker %d: %v", name, i, errs[i])
			}
			if sigs[i] != sigs[0] {
				t.Fatalf("%s: worker %d diverged:\n  %s\nvs\n  %s", name, i, sigs[i], sigs[0])
			}
		}
	}
}

// TestRunConcurrentKernelsSharePools runs Compiled.Run on different
// kernels from several goroutines at once, so the event-log pool and
// the recorder and simulator free lists hand scratch back and forth
// between unrelated jobs. Every result must be bit-identical to the same
// kernel's sequential run. Under -race it is also the pools' data-race
// audit.
func TestRunConcurrentKernelsSharePools(t *testing.T) {
	ctx := context.Background()
	opts := jrpm.DefaultOptions()
	all := workloads.All()
	compiled := make([]*jrpm.Compiled, len(all))
	inputs := make([]jrpm.Input, len(all))
	want := make([]*jrpm.SpeculateResult, len(all))
	for i, w := range all {
		c, err := jrpm.Compile(w.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		compiled[i], inputs[i] = c, w.NewInput(equivScale)
		if want[i], err = c.Run(ctx, inputs[i], opts); err != nil {
			t.Fatalf("%s: %v", w.Meta.Name, err)
		}
	}

	// Each worker walks every kernel from its own starting point, so at
	// any moment the workers run different kernels.
	const workers = 4
	got := make([][]*jrpm.SpeculateResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		got[g] = make([]*jrpm.SpeculateResult, len(all))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range all {
				i := (j + g*len(all)/workers) % len(all)
				res, err := compiled[i].Run(ctx, inputs[i], opts)
				if err != nil {
					errs[g] = fmt.Errorf("%s: %w", all[i].Meta.Name, err)
					return
				}
				got[g][i] = res
			}
		}(g)
	}
	wg.Wait()

	for g := range got {
		if errs[g] != nil {
			t.Fatalf("worker %d: %v", g, errs[g])
		}
		for i, res := range got[g] {
			if !reflect.DeepEqual(res, want[i]) {
				t.Errorf("worker %d, %s: result differs from the sequential run", g, all[i].Meta.Name)
			}
		}
	}
}

// TestRecordConcurrentProgramsSharePools compiles and records different
// kernels from several goroutines at once, so the token slices, program
// hash buffers, VM event batches and trace-writer staging buffers pass
// between unrelated jobs through their free lists. Every trace must be
// byte-identical to the same kernel's sequential recording. Under -race
// it is also the free lists' data-race audit.
func TestRecordConcurrentProgramsSharePools(t *testing.T) {
	ctx := context.Background()
	opts := jrpm.DefaultOptions()
	all := workloads.All()
	record := func(i int) ([]byte, error) {
		c, err := jrpm.Compile(all[i].Source, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := c.ProfileRecord(ctx, all[i].NewInput(equivScale), opts, &buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	want := make([][]byte, len(all))
	for i := range all {
		var err error
		if want[i], err = record(i); err != nil {
			t.Fatalf("%s: %v", all[i].Meta.Name, err)
		}
	}

	// Each worker walks every kernel from its own starting point, so at
	// any moment the workers record different programs.
	const workers = 4
	got := make([][][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		got[g] = make([][]byte, len(all))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range all {
				i := (j + g*len(all)/workers) % len(all)
				data, err := record(i)
				if err != nil {
					errs[g] = fmt.Errorf("%s: %w", all[i].Meta.Name, err)
					return
				}
				got[g][i] = data
			}
		}(g)
	}
	wg.Wait()

	for g := range got {
		if errs[g] != nil {
			t.Fatalf("worker %d: %v", g, errs[g])
		}
		for i, data := range got[g] {
			if !bytes.Equal(data, want[i]) {
				t.Errorf("worker %d, %s: trace differs from the sequential recording (%d vs %d bytes)",
					g, all[i].Meta.Name, len(data), len(want[i]))
			}
		}
	}
}
