package service

import (
	"context"
	"net/http"

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

// Wait long-polls job id until it is terminal.
func (c *Client) Wait(ctx context.Context, id string) (JobView, error) {
	return wait[JobView](ctx, c, "/v1/jobs/"+id)
}

// WaitSession long-polls session id until it is done, stopped or
// failed. An unknown or forgotten session answers 404, a
// *httpjson.StatusError.
func (c *Client) WaitSession(ctx context.Context, id string) (session.View, error) {
	return wait[session.View](ctx, c, "/v1/sessions/"+id)
}

// wait GETs path?wait=1 until the run is terminal. A 202 answer is the
// server's bounded long-poll expiring with the run still going, so wait
// polls again.
func wait[V any](ctx context.Context, c *Client, path string) (V, error) {
	for {
		var v V
		status, err := httpjson.Do(ctx, c.hc, http.MethodGet, c.base+path+"?wait=1", nil, nil, &v)
		if err != nil || status != http.StatusAccepted {
			return v, err
		}
	}
}
