package experiments

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"jrpm"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// streamLog keeps a copy of every event it is handed.
type streamLog struct{ evs []vmsim.Event }

func (l *streamLog) ConsumeEvents(evs []vmsim.Event) { l.evs = append(l.evs, evs...) }

// TestRunWithListenerMatchesRecording: runWithListener binds inputs in the
// same sorted name order as the profiling pipeline, so for every workload
// with two or more input arrays — where bind order decides the heap
// addresses — the stream it delivers is the one ProfileRecord recorded,
// less the call events a recording never stores.
func TestRunWithListenerMatchesRecording(t *testing.T) {
	checked := 0
	for _, w := range workloads.All() {
		in := w.NewInput(0.2)
		if len(in.Ints)+len(in.Floats) < 2 {
			continue
		}
		checked++
		opts := jrpm.DefaultOptions()
		c, err := jrpm.Compile(w.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		pr, err := c.ProfileRecord(context.Background(), in, opts, &buf)
		if err != nil {
			t.Fatal(err)
		}
		var live, replayed streamLog
		if err := runWithListener(pr, in, opts, &live); err != nil {
			t.Fatal(err)
		}
		if err := replayInto(c, buf.Bytes(), &replayed); err != nil {
			t.Fatal(err)
		}
		annotated := slices.DeleteFunc(live.evs, func(ev vmsim.Event) bool {
			return ev.Kind == vmsim.EvCallEnter || ev.Kind == vmsim.EvCallExit
		})
		if !slices.Equal(annotated, replayed.evs) {
			t.Errorf("%s: runWithListener's stream (%d events) differs from the recording (%d events)",
				w.Meta.Name, len(annotated), len(replayed.evs))
		}
	}
	if checked == 0 {
		t.Fatal("no workload has two or more input arrays")
	}
}
