package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

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
	body, err := json.Marshal(a.Self)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		BaseURL(a.Registry)+"/v1/fleet/register", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fleet: register: %s", resp.Status)
	}
	var rr registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return 0, fmt.Errorf("fleet: register response: %w", err)
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
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		BaseURL(a.Registry)+"/v1/fleet/members/"+a.Self.ID, nil)
	if err != nil {
		return
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		a.Logger.Warn("fleet deregister failed", "registry", a.Registry, "err", err)
		return
	}
	resp.Body.Close()
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
		base: BaseURL(addr),
		hc:   &http.Client{Timeout: 5 * time.Second},
	}
}

// Members fetches the registry's live member list.
func (m *RegistryMembership) Members(ctx context.Context) ([]Member, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.base+"/v1/fleet/members", nil)
	if err != nil {
		return nil, err
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: registry %s unreachable: %w", m.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: registry %s: %s", m.base, resp.Status)
	}
	var body struct {
		Members []Member `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("fleet: registry member list: %w", err)
	}
	return body.Members, nil
}
