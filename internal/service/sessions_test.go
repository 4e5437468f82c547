package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jrpm/internal/session"
)

func postSession(t *testing.T, base string, req SessionRequest) (string, int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error != "" {
		return "", resp.StatusCode, out.Error
	}
	return out.ID, resp.StatusCode, ""
}

func getSessionView(t *testing.T, base, id string) (session.View, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v session.View
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func waitSessionTerminal(t *testing.T, base, id string) session.View {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		v, code := getSessionView(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("GET session %s: HTTP %d", id, code)
		}
		switch v.State {
		case "done", "stopped", "failed":
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session %s did not reach a terminal state", id)
	return session.View{}
}

// TestSessionHTTPLifecycle drives the session endpoints end to end:
// POST starts an adaptive session over a built-in workload, GET polls it
// to completion, the list and metrics endpoints account for it, and
// DELETE on a finished session is a harmless no-op.
func TestSessionHTTPLifecycle(t *testing.T) {
	pool := NewPool(Config{Workers: 2})
	defer pool.Stop()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	id, code, errMsg := postSession(t, ts.URL, SessionRequest{
		Workload:     "BitOps",
		Scale:        0.35,
		Epochs:       4,
		SamplePeriod: 8192,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, errMsg)
	}
	if id == "" {
		t.Fatal("submit returned no session id")
	}

	v := waitSessionTerminal(t, ts.URL, id)
	if v.State != "done" {
		t.Fatalf("session state %q (error %q), want done", v.State, v.Error)
	}
	if v.Epoch != 4 {
		t.Fatalf("session ran %d epochs, want 4", v.Epoch)
	}
	if len(v.Loops) == 0 {
		t.Fatal("session finished with no tier records")
	}
	promoted := 0
	for _, lt := range v.Loops {
		promoted += lt.Promotions
	}
	if promoted == 0 {
		t.Fatal("no loop was ever promoted over 4 epochs of BitOps")
	}

	// The list endpoint carries a summary row for the session.
	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sessions []SessionSummary `json:"sessions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != id {
		t.Fatalf("session list = %+v, want exactly %s", list.Sessions, id)
	}
	if list.Sessions[0].Promotions == 0 {
		t.Fatalf("list summary shows no promotions: %+v", list.Sessions[0])
	}

	// /v1/metrics gains a sessions section fed by the same run.
	m := getMetrics(t, ts.URL)
	if m.Sessions.Started != 1 || m.Sessions.Active != 0 {
		t.Fatalf("metrics sessions = %+v, want 1 started / 0 active", m.Sessions)
	}
	if m.Sessions.Epochs != 4 {
		t.Fatalf("metrics counted %d session epochs, want 4", m.Sessions.Epochs)
	}
	if m.Sessions.Promoted == 0 {
		t.Fatal("metrics counted no promotions")
	}

	// The Prometheus exposition carries the session series too.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom := readAll(t, resp)
	for _, want := range []string{
		"jrpmd_sessions_started_total 1",
		"jrpmd_sessions_active 0",
		"session_epochs_total 4",
		"session_loop_observed_speedup{",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	// DELETE on a finished session reports it, state is unchanged.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err = http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE finished session: HTTP %d", resp.StatusCode)
	}
	if v, _ := getSessionView(t, ts.URL, id); v.State != "done" {
		t.Fatalf("state after DELETE = %q, want done", v.State)
	}

	// Unknown ids 404 on both GET and DELETE.
	if _, code := getSessionView(t, ts.URL, "s99999999"); code != http.StatusNotFound {
		t.Fatalf("GET unknown session: HTTP %d, want 404", code)
	}
	delReq, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/s99999999", nil)
	resp, err = http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown session: HTTP %d, want 404", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestSessionStopMidRun starts an effectively unbounded session and
// stops it over HTTP; the session lands in "stopped" with its progress
// intact.
func TestSessionStopMidRun(t *testing.T) {
	pool := NewPool(Config{Workers: 2})
	defer pool.Stop()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	id, code, errMsg := postSession(t, ts.URL, SessionRequest{
		Workload: "BitOps",
		Scale:    0.2,
		Epochs:   100000,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, errMsg)
	}

	// Let it make some progress before pulling the plug.
	deadline := time.Now().Add(time.Minute)
	for {
		v, _ := getSessionView(t, ts.URL, id)
		if v.Epoch >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never completed an epoch")
		}
		time.Sleep(10 * time.Millisecond)
	}

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running session: HTTP %d", resp.StatusCode)
	}
	v := waitSessionTerminal(t, ts.URL, id)
	if v.State != "stopped" {
		t.Fatalf("session state %q after stop, want stopped", v.State)
	}
	if v.Epoch < 1 {
		t.Fatal("stopped session lost its epoch progress")
	}
}

// TestSessionLimit429 exercises the running-session cap over HTTP.
func TestSessionLimit429(t *testing.T) {
	pool := NewPool(Config{Workers: 2, MaxSessions: 1})
	defer pool.Stop()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	id, code, errMsg := postSession(t, ts.URL, SessionRequest{
		Workload: "BitOps", Scale: 0.2, Epochs: 100000,
	})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d: %s", code, errMsg)
	}
	_, code, errMsg = postSession(t, ts.URL, SessionRequest{
		Workload: "BitOps", Scale: 0.2, Epochs: 1,
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit: HTTP %d (%s), want 429", code, errMsg)
	}
	if !strings.Contains(errMsg, "limit") {
		t.Fatalf("second submit error %q does not mention the limit", errMsg)
	}

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitSessionTerminal(t, ts.URL, id)

	// Capacity freed: the next submission is accepted again.
	_, code, errMsg = postSession(t, ts.URL, SessionRequest{
		Workload: "BitOps", Scale: 0.2, Epochs: 1,
	})
	if code != http.StatusAccepted {
		t.Fatalf("post-stop submit: HTTP %d: %s", code, errMsg)
	}
}

// TestSamplePeriodValidation pins the HTTP 400 contract for bad
// sample_period values on both the job and session endpoints.
func TestSamplePeriodValidation(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Stop()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	post := func(path string, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
		return resp.StatusCode, out.Error
	}

	for _, tc := range []struct {
		path, body, want string
	}{
		{"/v1/jobs", `{"workload":"BitOps","sample_period":17}`, "too small"},
		{"/v1/jobs", `{"workload":"BitOps","sample_period":-1}`, "negative"},
		{"/v1/sessions", `{"workload":"BitOps","sample_period":17}`, "too small"},
		{"/v1/sessions", `{"workload":"BitOps","sample_period":-5}`, "negative"},
		{"/v1/sessions", `{"workload":"BitOps","epochs":-1}`, "negative"},
		{"/v1/sessions", `{"source":"func main() { ret 0 }","jitter":true}`, "jitter"},
		// Epochs would draw scales up to 18.4, each building its input.
		{"/v1/sessions", `{"workload":"Huffman","scale":16,"jitter":true}`, "up to 18.4, over 16"},
	} {
		code, msg := post(tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s %s: HTTP %d (%s), want 400", tc.path, tc.body, code, msg)
			continue
		}
		if !strings.Contains(msg, tc.want) {
			t.Errorf("POST %s %s: error %q does not contain %q", tc.path, tc.body, msg, tc.want)
		}
	}

	// The floor is inclusive: exactly MinSamplePeriod is accepted.
	code, msg := post("/v1/jobs", fmt.Sprintf(`{"workload":"BitOps","sample_period":%d}`, MinSamplePeriod))
	if code != http.StatusAccepted {
		t.Fatalf("POST at the floor: HTTP %d (%s), want 202", code, msg)
	}
}

// TestSessionRetention: a pool keeps at most sixteen times its running
// limit of finished sessions; past that the oldest is forgotten and
// answers 404 on GET and DELETE, like an unknown id.
func TestSessionRetention(t *testing.T) {
	pool := NewPool(Config{Workers: 1, MaxSessions: 1})
	defer pool.Stop()
	srv := httptest.NewServer(NewServer(pool).Handler())
	defer srv.Close()

	const bound = 16
	var ids []string
	for i := 0; i < bound+2; i++ {
		s, err := pool.StartSession(SessionRequest{Workload: "BitOps", Scale: 0.05, Epochs: 1})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		<-s.Done()
		ids = append(ids, s.ID)
	}
	if n := len(pool.Sessions().List()); n != bound {
		t.Errorf("manager holds %d sessions, want %d", n, bound)
	}
	for _, id := range ids[:2] {
		if _, code := getSessionView(t, srv.URL, id); code != http.StatusNotFound {
			t.Errorf("GET forgotten session %s: HTTP %d, want 404", id, code)
		}
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("DELETE forgotten session %s: HTTP %d, want 404", id, resp.StatusCode)
		}
	}
	if v, code := getSessionView(t, srv.URL, ids[2]); code != http.StatusOK || v.State != "done" {
		t.Errorf("GET retained session %s: HTTP %d state %q, want 200 done", ids[2], code, v.State)
	}
}
