package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"jrpm"
	"jrpm/internal/corpus"
	"jrpm/internal/service"
)

// FuzzShardRequest: POST /v1/shards never panics and never answers 5xx,
// whatever the body. The worker holds a smoke-corpus recording, pushed
// through its own PUT route, and the first seed is a valid shard of it,
// so the fuzzer starts from a body that replays.
func FuzzShardRequest(f *testing.F) {
	pool := service.NewPool(service.Config{Workers: 1})
	f.Cleanup(pool.Stop)
	mux := http.NewServeMux()
	NewWorker(pool).Register(mux)
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}

	_, progs, err := corpus.Compile(corpus.SmokeSpec())
	if err != nil {
		f.Fatal(err)
	}
	p := progs[0]
	opts := jrpm.Normalize(jrpm.DefaultOptions())
	c, err := jrpm.Compile(p.Source, opts)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.ProfileRecord(context.Background(), p.Input(), opts, &buf); err != nil {
		f.Fatal(err)
	}
	key := service.TraceKeyOf(buf.Bytes())
	if rec := serve(http.MethodPut, "/v1/traces/"+key, buf.Bytes()); rec.Code != http.StatusNoContent {
		f.Fatalf("push: HTTP %d", rec.Code)
	}
	valid, err := json.Marshal(ShardRequest{
		TraceKey: key,
		Source:   p.Source,
		Optimize: opts.Optimize,
		Annot:    opts.Annot,
		Tracer:   opts.Tracer,
		Select:   opts.Select,
		Configs:  gridConfigs(2),
	})
	if err != nil {
		f.Fatal(err)
	}
	if rec := serve(http.MethodPost, "/v1/shards", valid); rec.Code != http.StatusOK {
		f.Fatalf("valid shard: HTTP %d: %s", rec.Code, rec.Body)
	}

	f.Add(valid)
	for _, body := range []string{
		`{}`,
		`not json`,
		`{"trace_key":"` + key + `","source":"func main() {}","configs":[{}]}`,
		`{"trace_key":"` + key + `","configs":[]}`,
		`{"trace_key":"` + key + `","source":"func main(","configs":[{}]}`,
		`{"trace_key":"` + key + `","configs":[{"Tracer":{"LoadLineTS":274877906944}}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if rec := serve(http.MethodPost, "/v1/shards", body); rec.Code >= 500 {
			t.Fatalf("HTTP %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
