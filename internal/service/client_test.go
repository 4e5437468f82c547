package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"jrpm/internal/httpjson"
)

// TestClientWaitsPastLongPoll: Client.Wait polls again on each 202 the
// bounded long-poll answers and returns the finished job's view, and
// WaitSession on an unknown id fails with a 404 *httpjson.StatusError
// instead of polling forever.
func TestClientWaitsPastLongPoll(t *testing.T) {
	pool := NewPool(Config{Workers: 1, LongPoll: 10 * time.Millisecond})
	defer pool.Stop()
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	pool.testHook = func(*Job) { <-release }

	// The job runs once three long-polls have expired on it.
	api := NewServer(pool).Handler()
	polls := 0
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		if r.Method == http.MethodGet && r.URL.Query().Get("wait") == "1" {
			mu.Lock()
			if polls++; polls == 3 {
				unblock()
			}
			mu.Unlock()
		}
	}))
	defer srv.Close()

	ctx := context.Background()
	c := NewClient(srv.URL, srv.Client())
	id, err := c.Submit(ctx, Request{Workload: "Huffman", Scale: 0.2}, "")
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Wait(ctx, id)
	if err != nil || v.State != StateDone || v.Result == nil {
		t.Fatalf("Wait(%s) = state %s, err %v; want the done view", id, v.State, err)
	}

	_, err = c.WaitSession(ctx, "s99999999")
	var se *httpjson.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("WaitSession(unknown) err = %v, want a 404 *httpjson.StatusError", err)
	}
}
