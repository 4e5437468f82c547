// Golden equivalence suite for the internal/trace subsystem: for every
// built-in workload, a recorded trace must replay into the live
// profile's exact analysis — not approximately, bit for bit — and a
// multi-configuration sweep over one recording must cost zero further VM
// executions.
package jrpm_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jrpm"
	"jrpm/internal/experiments"
	"jrpm/internal/hydra"
	"jrpm/internal/service"
	"jrpm/internal/session"
	"jrpm/internal/tls"
	"jrpm/internal/trace"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

const equivScale = 0.2

// TestReplayEquivalence: record + replay every workload and compare the
// full analysis against a plain live Profile of the same run.
func TestReplayEquivalence(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Meta.Name, func(t *testing.T) {
			t.Parallel()
			opts := jrpm.DefaultOptions()
			c, err := jrpm.Compile(w.Source, opts)
			if err != nil {
				t.Fatal(err)
			}

			live, err := c.Profile(context.Background(), w.NewInput(equivScale), opts)
			if err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			rec, err := c.ProfileRecord(context.Background(), w.NewInput(equivScale), opts, &buf)
			if err != nil {
				t.Fatal(err)
			}
			// The writer is a passive extra listener: recording must not
			// perturb the profile itself.
			assertSameProfile(t, "record vs live", rec, live)

			rep, err := c.ReplayProfile(buf.Bytes(), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameProfile(t, "replay vs live", rep, live)

			// Full comparator-bank state, not just the headline numbers.
			if !reflect.DeepEqual(rep.Tracer.Results(), live.Tracer.Results()) {
				t.Errorf("replay: per-loop tracer tables differ from live run")
			}
		})
	}
}

// TestRecorderReplayEquivalence: the TLS recorder is an ordinary event
// consumer, so fed a recording through Replay, or the traced run's
// in-memory event log as Compiled.Run feeds it, it must capture exactly
// the per-iteration traces of a live run of the annotated program, and
// the simulation over them must give the pipeline's ActualSpeedup.
func TestRecorderReplayEquivalence(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Meta.Name, func(t *testing.T) {
			t.Parallel()
			opts := jrpm.DefaultOptions()
			c, err := jrpm.Compile(w.Source, opts)
			if err != nil {
				t.Fatal(err)
			}
			in := w.NewInput(equivScale)
			var buf bytes.Buffer
			pr, err := c.ProfileRecord(context.Background(), in, opts, &buf)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := jrpm.SpeculateContext(context.Background(), in, pr)
			if err != nil {
				t.Fatal(err)
			}
			selected := pr.Analysis.SelectedLoopIDs()

			live := tls.NewRecorder(pr.Annotated, selected)
			vm := vmsim.New(pr.Annotated)
			vm.AnnotCost = pr.Opts.Cfg.Tracer.AnnotCost
			vm.ReadStatsCost = pr.Opts.Cfg.Tracer.ReadStatsCost
			if err := vm.BindInputs(in.Ints, in.Floats); err != nil {
				t.Fatal(err)
			}
			vm.Listeners = append(vm.Listeners, live)
			if err := vm.Run("main"); err != nil {
				t.Fatal(err)
			}

			replayed := tls.NewRecorder(pr.Annotated, selected)
			r, err := trace.NewBytesReader(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Replay(replayed); err != nil {
				t.Fatal(err)
			}
			if len(selected) > 0 && len(live.Entries) == 0 {
				t.Fatalf("selected loops %v recorded no entries", selected)
			}
			if !reflect.DeepEqual(replayed.Entries, live.Entries) {
				t.Fatalf("replayed recorder: %d entries differ from the live run's %d", len(replayed.Entries), len(live.Entries))
			}
			if got := jrpm.SpeculateEntries(pr, spec.Plan, replayed.Entries).ActualSpeedup; got != spec.ActualSpeedup {
				t.Errorf("ActualSpeedup from replay %v, live %v", got, spec.ActualSpeedup)
			}

			logged, err := c.LogFedRecorder(context.Background(), in, opts, selected)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(logged.Entries, live.Entries) {
				t.Fatalf("log-fed recorder: %d entries differ from the live run's %d", len(logged.Entries), len(live.Entries))
			}
		})
	}
}

// assertSameProfile compares every externally visible analysis output
// bit for bit.
func assertSameProfile(t *testing.T, what string, got, want *jrpm.ProfileResult) {
	t.Helper()
	if got.CleanCycles != want.CleanCycles || got.TracedCycles != want.TracedCycles {
		t.Errorf("%s: cycles clean=%d/%d traced=%d/%d", what,
			got.CleanCycles, want.CleanCycles, got.TracedCycles, want.TracedCycles)
	}
	if got.HeapLoads != want.HeapLoads || got.HeapStores != want.HeapStores ||
		got.LocalAnnots != want.LocalAnnots || got.LoopAnnots != want.LoopAnnots ||
		got.ReadStats != want.ReadStats || got.AnnotationCount != want.AnnotationCount {
		t.Errorf("%s: event counters differ", what)
	}
	ga, wa := got.Analysis, want.Analysis
	if !reflect.DeepEqual(ga.SelectedLoopIDs(), wa.SelectedLoopIDs()) {
		t.Errorf("%s: selected %v, want %v", what, ga.SelectedLoopIDs(), wa.SelectedLoopIDs())
	}
	if ga.PredictedCycles != wa.PredictedCycles {
		t.Errorf("%s: predicted cycles %v, want %v", what, ga.PredictedCycles, wa.PredictedCycles)
	}
	if ga.PredictedSpeedup() != wa.PredictedSpeedup() {
		t.Errorf("%s: predicted speedup %v, want %v", what, ga.PredictedSpeedup(), wa.PredictedSpeedup())
	}
	if len(ga.Selected) != len(wa.Selected) {
		t.Fatalf("%s: %d selected nodes, want %d", what, len(ga.Selected), len(wa.Selected))
	}
	for i := range wa.Selected {
		g, w := ga.Selected[i], wa.Selected[i]
		if g.Loop != w.Loop || g.Est != w.Est || !reflect.DeepEqual(g.Stats, w.Stats) {
			t.Errorf("%s: selected node %d differs: %+v vs %+v", what, i, g, w)
		}
	}
}

// TestSweepSingleExecution is the acceptance check for the offline
// analysis driver: analyzing one recording under several hydra
// configurations must perform no VM executions at all — the
// vmsim.RunCount hook proves it.
func TestSweepSingleExecution(t *testing.T) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	before := vmsim.RunCount()
	if _, err := c.ProfileRecord(context.Background(), w.NewInput(equivScale), opts, &buf); err != nil {
		t.Fatal(err)
	}
	recorded := vmsim.RunCount() - before
	if recorded != 1 { // the traced run alone, exactly as Profile does
		t.Fatalf("recording used %d VM executions, want 1", recorded)
	}

	base := hydra.DefaultConfig()
	bankSweep := []int{1, 2, 4, base.Tracer.Banks}
	defIdx := len(bankSweep) - 1 // the default machine is always in the sweep
	var cfgs []hydra.Config
	for _, banks := range bankSweep {
		cfg := base
		cfg.Tracer.Banks = banks
		cfgs = append(cfgs, cfg)
	}

	before = vmsim.RunCount()
	outs := c.SweepTrace(context.Background(), buf.Bytes(), cfgs, opts, 0)
	if n := vmsim.RunCount() - before; n != 0 {
		t.Fatalf("sweeping %d configs used %d VM executions, want 0", len(cfgs), n)
	}
	if len(outs) != len(cfgs) {
		t.Fatalf("%d outcomes for %d configs", len(outs), len(cfgs))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("config %d: %v", i, o.Err)
		}
		if o.Analysis.PredictedSpeedup() < 1 {
			t.Errorf("config %d: predicted speedup %v < 1", i, o.Analysis.PredictedSpeedup())
		}
	}
	// The default configuration appears in the sweep; its outcome must
	// equal the recording's own analysis.
	live, err := c.ReplayProfile(buf.Bytes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	def := outs[defIdx]
	if !reflect.DeepEqual(def.Analysis.SelectedLoopIDs(), live.Analysis.SelectedLoopIDs()) ||
		def.Analysis.PredictedCycles != live.Analysis.PredictedCycles {
		t.Error("default-config sweep outcome differs from direct replay")
	}
}

// TestProfileSpeculateRunCount pins the VM executions of a speculate
// job: Profile runs the annotated program once (the clean baseline is
// derived from that run), and SpeculateContext runs it once more to
// record the selected loops' iterations. Compiled.Run records from the
// traced run's event log instead, so it runs the program once, unless
// the log goes over its bound and the recording run comes back. Every
// pipeline caller that speculates or attaches an analysis goes through
// that one run: a Record+Speculate service job, a session epoch that
// speculates, the two-bin ablation and the call-return analysis (one run
// per workload), and a suite benchmark (one run plus its six Figure 6
// ladder runs, which execute other annotation variants).
func TestProfileSpeculateRunCount(t *testing.T) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	in := w.NewInput(equivScale)

	before := vmsim.RunCount()
	pr, err := c.Profile(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := vmsim.RunCount() - before; n != 1 {
		t.Fatalf("Profile used %d VM executions, want 1", n)
	}
	if _, err := jrpm.SpeculateContext(context.Background(), in, pr); err != nil {
		t.Fatal(err)
	}
	if n := vmsim.RunCount() - before; n != 2 {
		t.Fatalf("Profile plus SpeculateContext used %d VM executions, want 2", n)
	}

	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		run        func() (*jrpm.SpeculateResult, error)
		runs       int64
		recordRuns int
	}{
		{"Compiled.Run", func() (*jrpm.SpeculateResult, error) { return c.Run(ctx, in, opts, nil) }, 1, 0},
		{"Compiled.Run over the log bound", func() (*jrpm.SpeculateResult, error) {
			return c.RunLogLimit(ctx, in, opts, 1000)
		}, 2, 1},
	} {
		before = vmsim.RunCount()
		sr, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		if n := vmsim.RunCount() - before; n != tc.runs {
			t.Errorf("%s used %d VM executions, want %d", tc.name, n, tc.runs)
		}
		if sr.RecordRuns != tc.recordRuns {
			t.Errorf("%s: RecordRuns %d, want %d", tc.name, sr.RecordRuns, tc.recordRuns)
		}
	}

	perWorkload := int64(len(workloads.All()))
	for _, tc := range []struct {
		name string
		run  func() error
		runs int64
	}{
		{"record+speculate service job", func() error {
			pool := service.NewPool(service.Config{Workers: 1})
			defer pool.Stop()
			j, err := pool.Submit(service.Request{Workload: w.Meta.Name, Scale: equivScale, Record: true, Speculate: true})
			if err != nil {
				return err
			}
			v, err := j.Wait(ctx)
			if err != nil {
				return err
			}
			if v.State != service.StateDone || v.Result.TraceKey == "" || v.Result.ActualSpeedup == 0 {
				return fmt.Errorf("job %s %q: no trace or no speculation", v.State, v.Error)
			}
			return nil
		}, 1},
		{"speculating session epoch", func() error {
			th := session.DefaultThresholds()
			th.PromoteStreak = 1
			s, err := session.New(session.Config{
				Compiled: c, Name: "count", Traffic: session.FixedTraffic(in), Epochs: 1, Thresholds: th,
			})
			if err != nil {
				return err
			}
			if err := s.Run(ctx); err != nil {
				return err
			}
			if !slices.ContainsFunc(s.View().Transitions, func(tr session.Transition) bool {
				return tr.To == session.TierSpeculative.String()
			}) {
				return errors.New("the epoch promoted nothing, so it never speculated")
			}
			return nil
		}, 1},
		{"experiments.AblateBins", func() error {
			_, _, err := experiments.AblateBins(equivScale)
			return err
		}, perWorkload},
		{"experiments.MethodCallReturn", func() error {
			_, _, err := experiments.MethodCallReturn(equivScale)
			return err
		}, perWorkload},
		{"experiments Suite.Run", func() error {
			_, err := experiments.NewSuite(equivScale).Run(w.Meta.Name)
			return err
		}, 1 + 6},
	} {
		before = vmsim.RunCount()
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := vmsim.RunCount() - before; n != tc.runs {
			t.Errorf("%s used %d VM executions, want %d", tc.name, n, tc.runs)
		}
	}
}

// TestReplayWrongProgram: a trace must be refused by a different
// program's Compiled.
func TestReplayWrongProgram(t *testing.T) {
	a, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("NumHeapSort")
	if err != nil {
		t.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	ca, err := jrpm.Compile(a.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := jrpm.Compile(b.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ca.ProfileRecord(context.Background(), a.NewInput(equivScale), opts, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.ReplayProfile(buf.Bytes(), opts); err == nil {
		t.Fatal("replay against the wrong program succeeded")
	} else if err != trace.ErrHashMismatch {
		t.Fatalf("want ErrHashMismatch, got %v", err)
	}
}

// TestCompileDeterminism: recompiling the same source yields the same
// structural hash — the property that lets a trace recorded by one
// process be analyzed by another.
func TestCompileDeterminism(t *testing.T) {
	for _, w := range workloads.All() {
		var first [32]byte
		for i := 0; i < 3; i++ {
			c, err := jrpm.Compile(w.Source, jrpm.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			h := c.TraceHash()
			if i == 0 {
				first = h
			} else if h != first {
				t.Fatalf("%s: compile %d produced a different program hash", w.Meta.Name, i)
			}
		}
	}
}
