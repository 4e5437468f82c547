package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"jrpm/internal/httpjson"
	"jrpm/internal/session"
)

// Client submits jobs and sessions to a jrpmd and waits for them; jrpm
// -daemon, jrpm session -daemon and the load harness's remote platform
// all go through it.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets addr (host:port or URL) through hc, whose timeout
// bounds each request rather than the whole wait.
func NewClient(addr string, hc *http.Client) *Client {
	return &Client{base: httpjson.BaseURL(addr), hc: hc}
}

// Submit posts a job charged to tenant ("" is DefaultTenant) and
// returns its id. A refusal is a *httpjson.StatusError.
func (c *Client) Submit(ctx context.Context, req Request, tenant string) (string, error) {
	return c.start(ctx, "/v1/jobs", req, tenant)
}

// StartSession posts a session charged to tenant and returns its id.
func (c *Client) StartSession(ctx context.Context, req SessionRequest, tenant string) (string, error) {
	return c.start(ctx, "/v1/sessions", req, tenant)
}

func (c *Client) start(ctx context.Context, path string, req any, tenant string) (string, error) {
	var h http.Header
	if tenant != "" {
		h = http.Header{TenantHeader: {tenant}}
	}
	var sub struct {
		ID string `json:"id"`
	}
	_, err := httpjson.Do(ctx, c.hc, http.MethodPost, c.base+path, h, req, &sub)
	return sub.ID, err
}

// Wait long-polls job id until it is terminal. A 202 answer is the
// server's bounded long-poll expiring with the job still queued or
// running, so Wait polls again.
func (c *Client) Wait(ctx context.Context, id string) (JobView, error) {
	for {
		var v JobView
		status, err := httpjson.Do(ctx, c.hc, http.MethodGet, c.base+"/v1/jobs/"+id+"?wait=1", nil, nil, &v)
		if err != nil || status != http.StatusAccepted {
			return v, err
		}
	}
}

// sessionPoll is how often WaitSession reads a session's view: sessions
// have no long-poll.
const sessionPoll = 20 * time.Millisecond

// WaitSession polls session id until it is done, stopped or failed. Any
// answer but a 200 is an error: an unknown or forgotten session answers
// 404.
func (c *Client) WaitSession(ctx context.Context, id string) (session.View, error) {
	for {
		var v session.View
		status, err := httpjson.Do(ctx, c.hc, http.MethodGet, c.base+"/v1/sessions/"+id, nil, nil, &v)
		switch {
		case err != nil:
			return v, err
		case status != http.StatusOK:
			return v, fmt.Errorf("session %s: HTTP %d", id, status)
		}
		switch session.State(v.State) {
		case session.StateDone, session.StateStopped, session.StateFailed:
			return v, nil
		}
		select {
		case <-time.After(sessionPoll):
		case <-ctx.Done():
			return v, ctx.Err()
		}
	}
}
