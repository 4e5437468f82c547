package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"time"

	"jrpm/internal/fleet"
	"jrpm/internal/service"
)

// Remote drives a jrpmd (or anything serving its API — a worker, a
// coordinator front) over HTTP: the harness measures the full serving
// path including transport and JSON.
type Remote struct {
	base   string
	client *http.Client
}

// NewRemote targets addr ("host:port" or a full http URL).
func NewRemote(addr string) *Remote {
	return &Remote{base: fleet.BaseURL(addr), client: &http.Client{Timeout: 5 * time.Minute}}
}

func (a *Remote) Name() string { return "remote" }

func (a *Remote) Close() error {
	a.client.CloseIdleConnections()
	return nil
}

// postJSON posts v and decodes the response body (after verifying the
// daemon actually answered JSON), returning the HTTP status.
func (a *Remote) postJSON(ctx context.Context, path, tenant string, v, out any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", a.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(service.TenantHeader, tenant)
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, decodeJSON(resp, out)
}

func (a *Remote) getJSON(ctx context.Context, path string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", a.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, decodeJSON(resp, out)
}

// decodeJSON enforces the JSON content type before unmarshalling: a
// proxy error page must fail loudly as transport breakage, not as a
// confusing unmarshal error.
func decodeJSON(resp *http.Response, out any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if mt != "application/json" {
		return fmt.Errorf("non-JSON response (HTTP %d, Content-Type %q): %.200s",
			resp.StatusCode, resp.Header.Get("Content-Type"), b)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// submitView is the {"id": ..., "error": ...} union of the daemon's
// submit responses.
type submitView struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

func classifyStatus(code int) (ErrClass, bool) {
	switch {
	case code == http.StatusAccepted:
		return ErrOK, true
	case code == http.StatusTooManyRequests:
		return ErrShed, false
	case code >= 500:
		return ErrInternal, false
	case code >= 400:
		return ErrReject, false
	default:
		return ErrInternal, false
	}
}

// Prepare records one trace per kernel over the wire, retrying sheds.
func (a *Remote) Prepare(ctx context.Context, sched *Schedule) (map[string]string, error) {
	keys := make(map[string]string, len(sched.Kernels))
	for _, kernel := range sched.Kernels {
		req := sched.PrepareRequest(kernel)
		var v service.JobView
		for attempt := 0; ; attempt++ {
			var sub submitView
			code, err := a.postJSON(ctx, "/v1/jobs", "", req, &sub)
			if err != nil {
				return nil, fmt.Errorf("loadgen: prepare %s: %w", kernel, err)
			}
			if code == http.StatusTooManyRequests && attempt < prepareAttempts {
				select {
				case <-time.After(prepareBackoff):
					continue
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			if code != http.StatusAccepted {
				return nil, fmt.Errorf("loadgen: prepare %s: HTTP %d: %s", kernel, code, sub.Error)
			}
			if v, err = a.waitJob(ctx, sub.ID); err != nil {
				return nil, fmt.Errorf("loadgen: prepare %s: %w", kernel, err)
			}
			break
		}
		if v.State != service.StateDone || v.Result == nil || v.Result.TraceKey == "" {
			return nil, fmt.Errorf("loadgen: prepare %s: state=%s error=%q", kernel, v.State, v.Error)
		}
		keys[kernel] = v.Result.TraceKey
	}
	return keys, nil
}

// waitJob long-polls the job until a terminal state; a 202 answer is
// the server's bounded long-poll expiring, so poll again.
func (a *Remote) waitJob(ctx context.Context, id string) (service.JobView, error) {
	var v service.JobView
	for {
		code, err := a.getJSON(ctx, "/v1/jobs/"+id+"?wait=1", &v)
		if err != nil {
			return v, err
		}
		switch code {
		case http.StatusOK:
			return v, nil
		case http.StatusAccepted:
			continue
		default:
			return v, fmt.Errorf("poll job %s: HTTP %d", id, code)
		}
	}
}

func (a *Remote) Do(ctx context.Context, sched *Schedule, op Op, traceKey string) Outcome {
	if op.Class == OpSession {
		return a.doSession(ctx, sched, op)
	}
	req, err := sched.JobRequest(op, traceKey)
	if err != nil {
		return Outcome{Class: ErrReject, Err: err}
	}
	var sub submitView
	code, err := a.postJSON(ctx, "/v1/jobs", op.Tenant, req, &sub)
	if err != nil {
		return Outcome{Class: ErrInternal, Err: err}
	}
	if ec, ok := classifyStatus(code); !ok {
		return Outcome{Class: ec, Err: fmt.Errorf("HTTP %d: %s", code, sub.Error)}
	}
	v, err := a.waitJob(ctx, sub.ID)
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
	var sub submitView
	code, err := a.postJSON(ctx, "/v1/sessions", op.Tenant, sched.SessionRequest(op), &sub)
	if err != nil {
		return Outcome{Class: ErrInternal, Err: err}
	}
	if ec, ok := classifyStatus(code); !ok {
		return Outcome{Class: ec, Err: fmt.Errorf("HTTP %d: %s", code, sub.Error)}
	}
	// Sessions have no bounded long-poll endpoint; poll the view.
	var view struct {
		State string `json:"state"`
	}
	for {
		code, err := a.getJSON(ctx, "/v1/sessions/"+sub.ID, &view)
		if err != nil {
			return Outcome{Class: ErrInternal, Err: err}
		}
		if code != http.StatusOK {
			return Outcome{Class: ErrInternal, Err: fmt.Errorf("poll session %s: HTTP %d", sub.ID, code)}
		}
		switch view.State {
		case "done":
			return Outcome{Class: ErrOK}
		case "failed", "stopped":
			return Outcome{Class: ErrInternal, Err: fmt.Errorf("session %s", view.State)}
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return Outcome{Class: ErrInternal, Err: ctx.Err()}
		}
	}
}
