package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRegister: POST /v1/fleet/register never panics and never answers
// 5xx, whatever the body; a registration either joins (200) or is
// refused with a 4xx.
func FuzzRegister(f *testing.F) {
	for _, body := range []string{
		`{"id":"w1","addr":"host:8078","module":"jrpm","trace_format":1}`,
		`{"addr":"http://host:8078/"}`,
		`{"id":"w1"}`,
		`{"addr":""}`,
		`{"addr":"h","trace_format":-1}`,
		`[]`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	reg := NewRegistry(RegistryOptions{})
	mux := http.NewServeMux()
	reg.Register(mux)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/fleet/register", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("HTTP %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
