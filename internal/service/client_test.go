package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jrpm/internal/httpjson"
	"jrpm/internal/session"
)

// TestClientWaitsPastLongPoll: Client.Wait and WaitSession poll again
// on each 202 the bounded long-poll answers and return the finished
// run's view, and WaitSession on an unknown id fails with a 404
// *httpjson.StatusError instead of polling forever.
func TestClientWaitsPastLongPoll(t *testing.T) {
	pool := NewPool(Config{Workers: 1, LongPoll: 10 * time.Millisecond})
	defer pool.Stop()
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	pool.testHook = func(*Job) { <-release }

	// The job runs, and the session stops, once three long-polls have
	// expired on it.
	api := NewServer(pool).Handler()
	polls := map[string]int{}
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		if r.Method == http.MethodGet && r.URL.Query().Get("wait") == "1" {
			mu.Lock()
			if polls[r.URL.Path]++; polls[r.URL.Path] == 3 {
				if sess, ok := pool.Sessions().Get(strings.TrimPrefix(r.URL.Path, "/v1/sessions/")); ok {
					sess.Stop()
				} else {
					unblock()
				}
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

	sid, err := c.StartSession(ctx, SessionRequest{Workload: "BitOps", Scale: 0.05, Epochs: 1 << 30}, "")
	if err != nil {
		t.Fatal(err)
	}
	sv, err := c.WaitSession(ctx, sid)
	if err != nil || sv.State != string(session.StateStopped) {
		t.Fatalf("WaitSession(%s) = state %s, err %v; want the stopped view", sid, sv.State, err)
	}

	_, err = c.WaitSession(ctx, "s99999999")
	var se *httpjson.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("WaitSession(unknown) err = %v, want a 404 *httpjson.StatusError", err)
	}
}

// TestWaitSessionLongPolls: under the default long-poll bound, waiting
// for a session that runs for a while is one request, held until the
// session ends, not a poll loop.
func TestWaitSessionLongPolls(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	api := NewServer(pool).Handler()
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			gets.Add(1)
		}
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx := context.Background()
	c := NewClient(srv.URL, srv.Client())
	id, err := c.StartSession(ctx, SessionRequest{Workload: "BitOps", Scale: 0.05, Epochs: 1 << 30}, "")
	if err != nil {
		t.Fatal(err)
	}
	stop := time.AfterFunc(100*time.Millisecond, func() { pool.Sessions().Stop(id) })
	defer stop.Stop()
	v, err := c.WaitSession(ctx, id)
	if err != nil || v.State != string(session.StateStopped) {
		t.Fatalf("WaitSession(%s) = state %s, err %v; want the stopped view", id, v.State, err)
	}
	if n := gets.Load(); n != 1 {
		t.Errorf("WaitSession made %d GETs, want 1", n)
	}
}
