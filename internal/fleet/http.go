package fleet

import (
	"encoding/json"
	"net/http"
	"strings"
)

// BaseURL turns a host:port or URL into a scheme-qualified base with no
// trailing slash. Every client of a jrpmd (the CLI, the load harness,
// the coordinator and the fleet agent) resolves addresses through it,
// so each accepts both forms.
func BaseURL(addr string) string {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func httpError(rw http.ResponseWriter, status int, msg string) {
	writeJSON(rw, status, struct {
		Error string `json:"error"`
	}{Error: msg})
}
