package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func members(t *testing.T, m Membership) []Member {
	t.Helper()
	ms, err := m.Members(context.Background())
	if err != nil {
		t.Fatalf("Members: %v", err)
	}
	return ms
}

func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry(RegistryOptions{TTL: time.Minute})
	now := time.Unix(1000, 0)
	reg.now = func() time.Time { return now }
	mux := http.NewServeMux()
	reg.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	agent := &Agent{Registry: srv.URL, Self: Member{Addr: "w1:9090", Module: "v1", TraceFormat: 3}}
	agent.hc = srv.Client()
	ttl, err := agent.register(context.Background())
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if ttl != time.Minute {
		t.Fatalf("ttl = %v, want 1m", ttl)
	}
	ms := members(t, reg)
	if len(ms) != 1 || ms[0].ID != "w1:9090" || ms[0].TraceFormat != 3 {
		t.Fatalf("members after register: %+v", ms)
	}

	// Heartbeat refreshes rather than duplicating.
	if _, err := agent.register(context.Background()); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Registers != 1 || snap.Heartbeats != 1 || snap.Live != 1 {
		t.Fatalf("snapshot after heartbeat: %+v", snap)
	}

	// The HTTP membership view agrees with the in-process one.
	remote := NewRegistryMembership(srv.URL)
	if got := members(t, remote); len(got) != 1 || got[0].ID != "w1:9090" {
		t.Fatalf("remote members: %+v", got)
	}

	// TTL lapse prunes the member on the next read.
	now = now.Add(2 * time.Minute)
	if got := members(t, reg); len(got) != 0 {
		t.Fatalf("members after TTL lapse: %+v", got)
	}
	if snap := reg.Snapshot(); snap.Expirations != 1 {
		t.Fatalf("expirations = %d, want 1", snap.Expirations)
	}

	// Graceful deregister removes immediately and is idempotent.
	if _, err := agent.register(context.Background()); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	agent.deregister()
	agent.deregister()
	if got := members(t, reg); len(got) != 0 {
		t.Fatalf("members after deregister: %+v", got)
	}
	if snap := reg.Snapshot(); snap.Deregisters != 1 {
		t.Fatalf("deregisters = %d, want 1", snap.Deregisters)
	}
}

func TestRegistryRejectsBadRegister(t *testing.T) {
	reg := NewRegistry(RegistryOptions{})
	mux := http.NewServeMux()
	reg.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/v1/fleet/register", "application/json",
		nil)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", resp.StatusCode)
	}
}

func TestAgentHeartbeatKeepsMemberAlive(t *testing.T) {
	reg := NewRegistry(RegistryOptions{TTL: 150 * time.Millisecond})
	mux := http.NewServeMux()
	reg.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	agent := &Agent{Registry: srv.URL, Self: Member{Addr: "w1:9090"}}
	done := make(chan struct{})
	go func() { agent.Run(ctx); close(done) }()

	// Across several TTL windows the heartbeats must keep the member
	// live.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if len(members(t, reg)) == 0 && time.Since(deadline.Add(-time.Second)) > 300*time.Millisecond {
			t.Fatal("member expired despite a running agent")
		}
	}
	if len(members(t, reg)) != 1 {
		t.Fatal("member not live after heartbeat window")
	}

	// Cancel drains: the agent deregisters on its way out.
	cancel()
	<-done
	if got := members(t, reg); len(got) != 0 {
		t.Fatalf("members after agent shutdown: %+v", got)
	}
}

func TestStaticMembership(t *testing.T) {
	ms := members(t, Static{"a:1", "", "b:2"})
	if len(ms) != 2 || ms[0].ID != "a:1" || ms[1].Addr != "b:2" {
		t.Fatalf("static members: %+v", ms)
	}
}
