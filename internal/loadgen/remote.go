package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"jrpm/internal/httpjson"
	"jrpm/internal/service"
	"jrpm/internal/session"
)

// Remote drives a jrpmd (or anything serving its API — a worker, a
// coordinator front) over HTTP: the harness measures the full serving
// path including transport and JSON, the stages every client pays.
type Remote struct {
	hc  *http.Client
	api *service.Client
}

// NewRemote targets addr ("host:port" or a full http URL).
func NewRemote(addr string) *Remote {
	hc := &http.Client{Timeout: 5 * time.Minute}
	return &Remote{hc: hc, api: service.NewClient(addr, hc)}
}

// Close releases the client's idle connections.
func (a *Remote) Close() {
	a.hc.CloseIdleConnections()
}

// Outcome is one request's classified result.
type Outcome struct {
	Class ErrClass
	Err   error // detail when Class != ErrOK
}

// classifyMsg maps a terminal job error message to an error class.
func classifyMsg(msg string) ErrClass {
	switch {
	case strings.Contains(msg, "deadline") || strings.Contains(msg, "timeout"):
		return ErrDeadline
	default:
		return ErrInternal
	}
}

// prepareBackoff paces Prepare's retry loop when setup submissions are
// shed (e.g. tenant quotas configured on the daemon under test).
const prepareBackoff = 50 * time.Millisecond

// prepareAttempts bounds how long Prepare keeps retrying one shed
// kernel before giving up on the run.
const prepareAttempts = 100

// classifyStatus sorts a failed submission: the daemon's refusals by
// status, anything else (transport, a non-JSON answer) as internal.
func classifyStatus(err error) ErrClass {
	var se *httpjson.StatusError
	switch {
	case !errors.As(err, &se):
		return ErrInternal
	case se.Status == http.StatusTooManyRequests:
		return ErrShed
	case se.Status >= 400 && se.Status < 500:
		return ErrReject
	default:
		return ErrInternal
	}
}

// Prepare runs once before the open-loop phase: it records one replay
// trace for each kernel the schedule touches, which also fills the
// artifact cache, and returns kernel -> trace key. It retries sheds: it
// is setup, not measurement.
func (a *Remote) Prepare(ctx context.Context, sched *Schedule) (map[string]string, error) {
	keys := make(map[string]string, len(sched.Kernels))
	for _, kernel := range sched.Kernels {
		req := sched.PrepareRequest(kernel)
		var id string
		var err error
		for attempt := 0; ; attempt++ {
			id, err = a.api.Submit(ctx, req, "")
			if classifyStatus(err) != ErrShed || attempt >= prepareAttempts {
				break
			}
			select {
			case <-time.After(prepareBackoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("loadgen: prepare %s: %w", kernel, err)
		}
		v, err := a.api.Wait(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("loadgen: prepare %s: %w", kernel, err)
		}
		if v.State != service.StateDone || v.Result == nil || v.Result.TraceKey == "" {
			return nil, fmt.Errorf("loadgen: prepare %s: state=%s error=%q", kernel, v.State, v.Error)
		}
		keys[kernel] = v.Result.TraceKey
	}
	return keys, nil
}

// Do synchronously executes one op, classifying the result. traceKey
// is the kernel's setup recording (replay ops).
func (a *Remote) Do(ctx context.Context, sched *Schedule, op Op, traceKey string) Outcome {
	if op.Class == OpSession {
		return a.doSession(ctx, sched, op)
	}
	req, err := sched.JobRequest(op, traceKey)
	if err != nil {
		return Outcome{Class: ErrReject, Err: err}
	}
	id, err := a.api.Submit(ctx, req, op.Tenant)
	if err != nil {
		return Outcome{Class: classifyStatus(err), Err: err}
	}
	v, err := a.api.Wait(ctx, id)
	if err != nil {
		return Outcome{Class: ErrInternal, Err: err}
	}
	switch v.State {
	case service.StateDone:
		return Outcome{Class: ErrOK}
	case service.StateFailed:
		return Outcome{Class: classifyMsg(v.Error), Err: fmt.Errorf("%s", v.Error)}
	default:
		return Outcome{Class: ErrInternal, Err: fmt.Errorf("job %s", v.State)}
	}
}

func (a *Remote) doSession(ctx context.Context, sched *Schedule, op Op) Outcome {
	id, err := a.api.StartSession(ctx, sched.SessionRequest(op), op.Tenant)
	if err != nil {
		return Outcome{Class: classifyStatus(err), Err: err}
	}
	v, err := a.api.WaitSession(ctx, id)
	if err != nil {
		return Outcome{Class: ErrInternal, Err: err}
	}
	if v.State != string(session.StateDone) {
		return Outcome{Class: ErrInternal, Err: fmt.Errorf("session %s", v.State)}
	}
	return Outcome{Class: ErrOK}
}
