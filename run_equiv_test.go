package jrpm_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jrpm"
	"jrpm/internal/corpus"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// runCase is one program and input for the Compiled.Run equivalence
// tests: the 26 kernels, and every fifth default-corpus program.
type runCase struct {
	name string
	src  string
	in   jrpm.Input
}

func runCases(t *testing.T) []runCase {
	t.Helper()
	var cases []runCase
	for _, w := range workloads.All() {
		cases = append(cases, runCase{"kernel/" + w.Meta.Name, w.Source, w.NewInput(equivScale)})
	}
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(progs); i += 5 {
		p := progs[i]
		cases = append(cases, runCase{fmt.Sprintf("corpus/%d", i), p.Source, p.Input()})
	}
	if len(cases) < 126 {
		t.Fatalf("%d cases, want the 26 kernels and at least 100 corpus programs", len(cases))
	}
	return cases
}

// checkRunMatches holds Compiled.Run, with the event log bounded at
// limit events, to Profile followed by SpeculateContext on every case,
// bit for bit. A case whose traced run emits more than limit events
// must have fallen back to a recording run; it returns how many did.
func checkRunMatches(t *testing.T, limit int) (fallbacks int) {
	ctx := context.Background()
	opts := jrpm.DefaultOptions()
	for _, tc := range runCases(t) {
		c, err := jrpm.Compile(tc.src, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pr, err := c.Profile(ctx, tc.in, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := jrpm.SpeculateContext(ctx, tc.in, pr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := c.RunLogLimit(ctx, tc.in, opts, limit)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertSameProfile(t, tc.name, got.Profile, want.Profile)
		if !reflect.DeepEqual(got.Loops, want.Loops) {
			t.Errorf("%s: per-loop TLS results differ", tc.name)
		}
		if !reflect.DeepEqual(got.Plan, want.Plan) {
			t.Errorf("%s: recompilation plans differ", tc.name)
		}
		if got.ActualCycles != want.ActualCycles || got.ActualSpeedup != want.ActualSpeedup {
			t.Errorf("%s: actual cycles/speedup %v/%v, want %v/%v", tc.name,
				got.ActualCycles, got.ActualSpeedup, want.ActualCycles, want.ActualSpeedup)
		}
		wantRecordRuns := 0
		if n := countEvents(t, c, tc.in, opts); n > limit {
			wantRecordRuns = 1
			fallbacks++
		}
		if got.RecordRuns != wantRecordRuns {
			t.Errorf("%s: RecordRuns %d, want %d", tc.name, got.RecordRuns, wantRecordRuns)
		}
	}
	return fallbacks
}

type eventCounter struct{ n int }

func (c *eventCounter) ConsumeEvents(evs []vmsim.Event) { c.n += len(evs) }

// countEvents returns the number of events c's annotated program emits
// on in.
func countEvents(t *testing.T, c *jrpm.Compiled, in jrpm.Input, opts jrpm.Options) int {
	t.Helper()
	vm, err := jrpm.NewVM(c.Annotated, in, opts.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	var n eventCounter
	vm.Listeners = append(vm.Listeners, &n)
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	return n.n
}

// TestRunMatchesProfileSpeculate: Compiled.Run, which feeds the TLS
// recorder from the traced run's event log, gives exactly what Profile
// and a separate recording run give.
func TestRunMatchesProfileSpeculate(t *testing.T) {
	if n := checkRunMatches(t, jrpm.MaxLogEvents); n != 0 {
		t.Errorf("%d cases went over the event log's bound", n)
	}
}

// TestRunFallbackMatchesProfileSpeculate: with the event log bounded
// below the larger runs' streams, the log gives up mid-run (holding
// chunks) and Compiled.Run falls back to a recording run, with the same
// answer.
func TestRunFallbackMatchesProfileSpeculate(t *testing.T) {
	if n := checkRunMatches(t, 10000); n < 10 {
		t.Errorf("only %d cases went over the bound; the fallback is barely exercised", n)
	}
}

// innermostLoops is a selection other than Equation 2's: every profiled
// loop with no loop nested inside it, in ascending id order.
func innermostLoops(pr *jrpm.ProfileResult) []int {
	var ids []int
	for id, n := range pr.Analysis.Nodes {
		if len(n.Children) == 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestRunSelectionMatchesRecording: Compiled.Run with a selection of its
// own — what an adaptive session passes — gives exactly what the
// recording-run path gives over the same loops, and calls the selection
// once, with the profile Run returns.
func TestRunSelectionMatchesRecording(t *testing.T) {
	ctx := context.Background()
	opts := jrpm.DefaultOptions()
	differ := 0
	for _, tc := range runCases(t) {
		c, err := jrpm.Compile(tc.src, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var calls int
		var seen *jrpm.ProfileResult
		var sel []int
		got, err := c.Run(ctx, tc.in, opts, func(pr *jrpm.ProfileResult) []int {
			calls++
			seen, sel = pr, innermostLoops(pr)
			return sel
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if calls != 1 || seen != got.Profile {
			t.Fatalf("%s: selection called %d times, with the returned profile: %v", tc.name, calls, seen == got.Profile)
		}
		if !slices.Equal(sel, got.Profile.Analysis.SelectedLoopIDs()) {
			differ++
		}
		pr, err := c.Profile(ctx, tc.in, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := jrpm.SpeculateByRecording(ctx, tc.in, pr, sel)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertSameProfile(t, tc.name, got.Profile, want.Profile)
		if !reflect.DeepEqual(got.Loops, want.Loops) {
			t.Errorf("%s: per-loop TLS results differ", tc.name)
		}
		if !reflect.DeepEqual(got.Plan, want.Plan) {
			t.Errorf("%s: recompilation plans differ", tc.name)
		}
		if got.ActualCycles != want.ActualCycles || got.ActualSpeedup != want.ActualSpeedup {
			t.Errorf("%s: actual cycles/speedup %v/%v, want %v/%v", tc.name,
				got.ActualCycles, got.ActualSpeedup, want.ActualCycles, want.ActualSpeedup)
		}
		if got.RecordRuns != 0 || want.RecordRuns != 1 {
			t.Errorf("%s: RecordRuns %d and %d, want 0 and 1", tc.name, got.RecordRuns, want.RecordRuns)
		}
	}
	if differ < 10 {
		t.Errorf("the innermost loops differ from the Equation 2 selection in only %d cases", differ)
	}
}

// TestRunCanceledBeforeReplay: a job canceled after its traced run
// returns the context's cause instead of replaying the event log.
func TestRunCanceledBeforeReplay(t *testing.T) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("client went away")
	sr, err := c.RunCanceledBeforeReplay(w.NewInput(equivScale), opts, cause)
	if !errors.Is(err, cause) || sr != nil {
		t.Fatalf("got %v, %v; want nil, the cancel cause", sr, err)
	}
}
