package experiments

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"jrpm"
	"jrpm/internal/trace"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// streamLog keeps a copy of every event it is handed.
type streamLog struct{ evs []vmsim.Event }

func (l *streamLog) ConsumeEvents(evs []vmsim.Event) { l.evs = append(l.evs, evs...) }

// replayInto replays a recorded trace into an arbitrary VM listener.
func replayInto(c *jrpm.Compiled, data []byte, l vmsim.Listener) error {
	r, err := trace.NewBytesReader(data)
	if err != nil {
		return err
	}
	r.NumLoops = len(c.Annotated.Loops)
	_, err = r.Replay(l)
	return err
}

// TestRunWithListenerMatchesRecording: a listener passed to
// Compiled.Profile as an extra listener — how the experiments attach
// their analyses — sees the stream ProfileRecord records, event for
// event and in order, less the call events a recording never stores.
// Only workloads with two or more input arrays are checked, where the
// order inputs are bound in decides the heap addresses.
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
		if _, err := c.ProfileRecord(context.Background(), in, opts, &buf); err != nil {
			t.Fatal(err)
		}
		var live, replayed streamLog
		if _, err := c.Profile(context.Background(), in, opts, &live); err != nil {
			t.Fatal(err)
		}
		if err := replayInto(c, buf.Bytes(), &replayed); err != nil {
			t.Fatal(err)
		}
		annotated := slices.DeleteFunc(live.evs, func(ev vmsim.Event) bool {
			return ev.Kind == vmsim.EvCallEnter || ev.Kind == vmsim.EvCallExit
		})
		if len(annotated) == 0 || !slices.Equal(annotated, replayed.evs) {
			t.Errorf("%s: the extra listener's stream (%d events) differs from the recording (%d events)",
				w.Meta.Name, len(annotated), len(replayed.evs))
		}
	}
	if checked == 0 {
		t.Fatal("no workload has two or more input arrays")
	}
}
