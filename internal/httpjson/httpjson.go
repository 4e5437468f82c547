// Package httpjson is the JSON-over-HTTP codec of the jrpmd API. Every
// request a client sends to a jrpmd, a cluster worker or a fleet
// registry is built and decoded by Do, and the servers whose answers
// are compact JSON (the worker, the registry, the sweep service) write
// them with Reply and Error.
package httpjson

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"

	"jrpm/internal/telemetry"
)

// BaseURL turns a host:port or URL into a scheme-qualified base with no
// trailing slash, so every client accepts both forms.
func BaseURL(addr string) string {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

// StatusError is a non-2xx answer. Msg and Code come from the
// {"error","code"} body every jrpmd error carries; a body that is not
// such JSON (a mux 404, a proxy's page) becomes Msg, trimmed.
type StatusError struct {
	Status int
	Msg    string
	Code   string
}

func (e *StatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Status, e.Msg) }

// errorBody is the JSON shape of every error answer.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// maxErrorBody bounds how much of a non-2xx body becomes a StatusError.
const maxErrorBody = 64 << 10

// Raw is a request body sent as given rather than encoded as JSON.
type Raw struct {
	Type string // Content-Type
	Data []byte
}

// Do sends one request on ctx through hc and returns the answer's
// status. body is nil (no body), a Raw, or a value sent as JSON; header
// entries, when header is not nil, are added to the request, and ctx's
// trace context rides along as traceparent.
//
// A 2xx answer is decoded into out straight from the body, after
// checking that it is JSON, so a proxy's HTML page fails as transport
// breakage rather than as a decode error; a nil out discards the body.
// Any other status returns a *StatusError.
func Do(ctx context.Context, hc *http.Client, method, url string, header http.Header, body, out any) (int, error) {
	var rd io.Reader
	ctype := ""
	switch b := body.(type) {
	case nil:
	case Raw:
		rd, ctype = bytes.NewReader(b.Data), b.Type
	default:
		data, err := json.Marshal(b)
		if err != nil {
			return 0, err
		}
		rd, ctype = bytes.NewReader(data), "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	telemetry.Inject(ctx, req.Header)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	status := resp.StatusCode
	if status < 200 || status > 299 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		se := &StatusError{Status: status, Msg: string(bytes.TrimSpace(b))}
		var eb errorBody
		if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
			se.Msg, se.Code = eb.Error, eb.Code
		}
		return status, se
	}
	if out != nil {
		ct := resp.Header.Get("Content-Type")
		if mt, _, _ := mime.ParseMediaType(ct); mt != "application/json" {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
			return status, fmt.Errorf("non-JSON response (HTTP %d, Content-Type %q): %s", status, ct, b)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return status, fmt.Errorf("bad response body (HTTP %d): %w", status, err)
		}
	}
	// Read to EOF so the connection goes back to the pool; the bound
	// keeps a misbehaving server from holding the caller.
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBody)) //nolint:errcheck // reuse is best effort
	return status, nil
}

// Reply writes v as compact JSON with status.
func Reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// Error writes the {"error","code"} body of a failed request; an empty
// code is left out.
func Error(w http.ResponseWriter, status int, msg, code string) {
	Reply(w, status, errorBody{Error: msg, Code: code})
}
