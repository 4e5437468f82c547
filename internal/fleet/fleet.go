// Package fleet turns the cluster's static worker list into a living
// fleet. Three pieces cooperate:
//
//   - Registry: an HTTP endpoint workers self-register with. Each
//     registration carries an address plus the worker's module and
//     trace-format versions; liveness is a TTL refreshed by periodic
//     heartbeats, so a crashed worker simply ages out.
//   - Agent: the worker-side loop that registers, heartbeats at a
//     fraction of the TTL, and deregisters gracefully on drain.
//   - Membership: the read side. The cluster scheduler re-snapshots a
//     Membership throughout a sweep, so workers joining mid-sweep take
//     shards from its queue and a dead worker's in-flight shards are
//     retried elsewhere.
package fleet

import "context"

// Member is one worker in the fleet.
type Member struct {
	// ID names the member. Workers default it to their advertised
	// address, which keeps IDs meaningful in logs and metrics.
	ID string `json:"id"`
	// Addr is the address other fleet nodes reach the member at
	// (host:port or http://host:port).
	Addr string `json:"addr"`
	// Module and TraceFormat mirror GET /v1/version; the registry
	// records them so operators can spot mixed-version fleets, and the
	// coordinator still hard-verifies per worker before dispatch.
	Module      string `json:"module,omitempty"`
	TraceFormat int    `json:"trace_format,omitempty"`
}

// Membership is a dynamic view of the live worker set. Implementations
// must be safe for concurrent use; the scheduler polls one for the
// whole duration of a sweep.
type Membership interface {
	Members(ctx context.Context) ([]Member, error)
}

// Static adapts a fixed address list into a Membership; jrpm sweep
// -workers passes one. The list never changes, but the scheduler
// re-probes it like any membership: a listed worker that is unreachable
// or draining at startup is excluded, and admitted mid-sweep once it
// answers the probe.
type Static []string

// Members returns one member per address, in the configured order, so
// the scheduler's worker list stays deterministic.
func (s Static) Members(context.Context) ([]Member, error) {
	ms := make([]Member, 0, len(s))
	for _, addr := range s {
		if addr == "" {
			continue
		}
		ms = append(ms, Member{ID: addr, Addr: addr})
	}
	return ms, nil
}
