package fleet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"jrpm/internal/httpjson"
	"jrpm/internal/telemetry"
)

// Agent keeps one worker registered with a fleet registry: an initial
// registration, heartbeats at a third of the registry's TTL, and a
// graceful deregister when the run context is canceled (drain). The
// agent is deliberately forgiving — a registry blip only costs a
// heartbeat, and the next one re-registers from scratch.
type Agent struct {
	// Registry is the registry's base address (host:port or URL).
	Registry string
	// Self is the identity to advertise. Addr is required; an empty ID
	// defaults to Addr.
	Self Member
	// Logger receives registration state changes. Nil is silent.
	Logger *telemetry.Logger

	hc *http.Client
}

// Run blocks, keeping the registration fresh until ctx is canceled,
// then deregisters with a short off-context timeout so drain still
// cleans up the membership entry.
func (a *Agent) Run(ctx context.Context) {
	if a.hc == nil {
		a.hc = &http.Client{Timeout: 5 * time.Second}
	}
	if a.Self.ID == "" {
		a.Self.ID = a.Self.Addr
	}
	// Deregister on every exit path — cancellation can land while a
	// register is in flight, and the DELETE is idempotent anyway.
	defer a.deregister()
	// Re-register promptly until the first success, then settle into
	// ttl/3 heartbeats.
	retry := 250 * time.Millisecond
	interval := retry
	registered := false
	for {
		ttl, err := a.register(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if registered {
				a.Logger.Warn("fleet heartbeat failed", "registry", a.Registry, "err", err)
			}
			registered = false
			interval = retry
		} else {
			if !registered {
				a.Logger.Info("fleet registration live",
					"registry", a.Registry, "id", a.Self.ID, "ttl", ttl)
			}
			registered = true
			interval = ttl / 3
			if interval <= 0 {
				interval = time.Second
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

func (a *Agent) register(ctx context.Context) (time.Duration, error) {
	var rr registerResponse
	if _, err := httpjson.Do(ctx, a.hc, http.MethodPost, httpjson.BaseURL(a.Registry)+"/v1/fleet/register", nil, a.Self, &rr); err != nil {
		return 0, fmt.Errorf("fleet: register: %w", err)
	}
	if rr.ID != "" {
		// Adopt the registry's idea of our ID so deregister targets
		// the same record.
		a.Self.ID = rr.ID
	}
	return time.Duration(rr.TTLMs) * time.Millisecond, nil
}

// deregister runs on its own deadline: the caller's context is already
// canceled when drain begins.
func (a *Agent) deregister() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := httpjson.Do(ctx, a.hc, http.MethodDelete, httpjson.BaseURL(a.Registry)+"/v1/fleet/members/"+a.Self.ID, nil, nil, nil); err != nil {
		a.Logger.Warn("fleet deregister failed", "registry", a.Registry, "err", err)
		return
	}
	a.Logger.Info("fleet deregistered", "id", a.Self.ID)
}

// RegistryMembership reads live members from a remote registry over
// HTTP; it is the Membership a coordinator uses when the registry runs
// in another process (jrpm sweep -registry, jrpmd -registry).
type RegistryMembership struct {
	base string
	hc   *http.Client
}

// NewRegistryMembership points a membership view at a registry address.
func NewRegistryMembership(addr string) *RegistryMembership {
	return &RegistryMembership{
		base: httpjson.BaseURL(addr),
		hc:   &http.Client{Timeout: 5 * time.Second},
	}
}

// Members fetches the registry's live member list.
func (m *RegistryMembership) Members(ctx context.Context) ([]Member, error) {
	var body struct {
		Members []Member `json:"members"`
	}
	if _, err := httpjson.Do(ctx, m.hc, http.MethodGet, m.base+"/v1/fleet/members", nil, nil, &body); err != nil {
		return nil, fmt.Errorf("fleet: registry %s: %w", m.base, err)
	}
	return body.Members, nil
}
