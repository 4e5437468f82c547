package httpjson

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestBaseURL: a bare host:port gains http://, a URL keeps its scheme,
// and trailing slashes go.
func TestBaseURL(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{"host:8077", "http://host:8077"},
		{"http://host:8077/", "http://host:8077"},
		{"https://host", "https://host"},
		{"http://localhost:8077", "http://localhost:8077"},
	} {
		if got := BaseURL(tc.addr); got != tc.want {
			t.Errorf("BaseURL(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}
}

// TestDoStatusError: a non-2xx answer becomes a *StatusError built from
// the {"error","code"} body, or from the trimmed text of any other
// body; a 2xx answer that is not JSON fails.
func TestDoStatusError(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /json", func(w http.ResponseWriter, _ *http.Request) {
		Error(w, http.StatusConflict, "no such thing", "missing")
	})
	mux.HandleFunc("GET /text", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "  teapot  ", http.StatusTeapot)
	})
	mux.HandleFunc("GET /html", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.Write([]byte("<html>bad gateway</html>")) //nolint:errcheck
	})
	mux.HandleFunc("PUT /raw", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]string{"type": r.Header.Get("Content-Type"), "tenant": r.Header.Get("X-Tenant")})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx := context.Background()

	for _, tc := range []struct {
		path string
		want StatusError
	}{
		{"/json", StatusError{http.StatusConflict, "no such thing", "missing"}},
		{"/text", StatusError{http.StatusTeapot, "teapot", ""}},
		{"/nowhere", StatusError{http.StatusNotFound, "404 page not found", ""}},
	} {
		_, err := Do(ctx, srv.Client(), http.MethodGet, srv.URL+tc.path, nil, nil, nil)
		var se *StatusError
		if !errors.As(err, &se) || *se != tc.want {
			t.Errorf("GET %s: err = %v, want %+v", tc.path, err, tc.want)
		}
	}
	var out any
	if _, err := Do(ctx, srv.Client(), http.MethodGet, srv.URL+"/html", nil, nil, &out); err == nil {
		t.Error("HTML answer decoded without error")
	}
	var got map[string]string
	status, err := Do(ctx, srv.Client(), http.MethodPut, srv.URL+"/raw",
		http.Header{"X-Tenant": {"t1"}}, Raw{Type: "application/octet-stream", Data: []byte{1}}, &got)
	if err != nil || status != http.StatusOK || got["type"] != "application/octet-stream" || got["tenant"] != "t1" {
		t.Errorf("PUT raw: status %d, body %v, err %v", status, got, err)
	}
}
