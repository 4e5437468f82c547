package jrpm

import (
	"context"
	"errors"

	"jrpm/internal/tls"
)

// SpeculateEntries exposes the simulation half of the recording path,
// so tests can feed it per-iteration traces recorded some other way.
var SpeculateEntries = speculateEntries

// SpeculateByRecording is SpeculateContext over an explicit loop set:
// the recording-run path Compiled.Run's event log replaces.
func SpeculateByRecording(ctx context.Context, in Input, pr *ProfileResult, selected []int) (*SpeculateResult, error) {
	return speculateLogged(ctx, in, pr, selected, nil)
}

// MaxLogEvents is the event log's bound in events.
const MaxLogEvents = maxLogEvents

// RunLogLimit is Compiled.Run with the event log bounded at limit
// events, so tests can drive the over-limit fallback.
func (c *Compiled) RunLogLimit(ctx context.Context, in Input, opts Options, limit int) (*SpeculateResult, error) {
	return c.run(ctx, in, opts, nil, newEventLog(limit), nil)
}

// RunCanceledBeforeReplay is Compiled.Run with ctx canceled with cause
// between the traced run and the log replay.
func (c *Compiled) RunCanceledBeforeReplay(in Input, opts Options, cause error) (*SpeculateResult, error) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	log := newEventLog(maxLogEvents)
	defer log.release()
	pr, err := c.Profile(ctx, in, opts, log)
	if err != nil {
		return nil, err
	}
	cancel(cause)
	return speculateLogged(ctx, in, pr, pr.Analysis.SelectedLoopIDs(), log)
}

// LogFedRecorder profiles c with the event log attached to the traced
// run, then replays the log into a fresh recorder of the selected loops.
func (c *Compiled) LogFedRecorder(ctx context.Context, in Input, opts Options, selected []int) (*tls.Recorder, error) {
	log := newEventLog(maxLogEvents)
	defer log.release()
	if _, err := c.Profile(ctx, in, opts, log); err != nil {
		return nil, err
	}
	if !log.complete() {
		return nil, errors.New("event log went over its bound")
	}
	rec := tls.NewRecorder(c.Annotated, selected)
	log.replay(rec)
	return rec, nil
}
