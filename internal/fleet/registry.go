package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"jrpm/internal/httpjson"
	"jrpm/internal/telemetry"
)

// DefaultTTL is the liveness window a registration buys. Agents
// heartbeat at a third of the TTL, so one lost heartbeat never expires
// a healthy worker.
const DefaultTTL = 10 * time.Second

// RegistryOptions configures a Registry. The zero value works.
type RegistryOptions struct {
	// TTL is the liveness window; <= 0 means DefaultTTL.
	TTL time.Duration
	// Logger receives join/expire/deregister events. Nil is silent.
	Logger *telemetry.Logger
}

// Registry tracks fleet membership over HTTP. Workers POST to
// /v1/fleet/register to join and to heartbeat; members whose TTL lapses
// are pruned lazily on the next read, so a crashed worker needs no
// explicit cleanup. Registry itself implements Membership, giving a
// daemon that hosts the registry an in-process view with no HTTP hop.
type Registry struct {
	opts RegistryOptions

	mu      sync.Mutex
	members map[string]*memberRecord

	registers   int64
	heartbeats  int64
	expirations int64
	deregisters int64

	// now is swapped by tests to drive TTL expiry deterministically.
	now func() time.Time
}

type memberRecord struct {
	Member
	expires time.Time
}

// NewRegistry builds an empty registry.
func NewRegistry(opts RegistryOptions) *Registry {
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	return &Registry{
		opts:    opts,
		members: make(map[string]*memberRecord),
		now:     time.Now,
	}
}

// TTL reports the liveness window registrations are granted.
func (r *Registry) TTL() time.Duration { return r.opts.TTL }

// Register mounts the membership endpoints on mux.
func (r *Registry) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/fleet/register", r.handleRegister)
	mux.HandleFunc("GET /v1/fleet/members", r.handleMembers)
	mux.HandleFunc("DELETE /v1/fleet/members/{id}", r.handleDeregister)
}

// registerResponse tells the agent its effective ID and how often to
// heartbeat.
type registerResponse struct {
	ID    string `json:"id"`
	TTLMs int64  `json:"ttl_ms"`
}

func (r *Registry) handleRegister(rw http.ResponseWriter, req *http.Request) {
	var m Member
	if err := json.NewDecoder(http.MaxBytesReader(rw, req.Body, 1<<20)).Decode(&m); err != nil {
		httpjson.Error(rw, http.StatusBadRequest, "malformed register body: "+err.Error(), "")
		return
	}
	if m.Addr == "" {
		httpjson.Error(rw, http.StatusBadRequest, "register requires addr", "")
		return
	}
	if m.ID == "" {
		m.ID = m.Addr
	}
	r.mu.Lock()
	r.pruneLocked()
	rec, known := r.members[m.ID]
	if known {
		r.heartbeats++
		rec.Member = m
		rec.expires = r.now().Add(r.opts.TTL)
	} else {
		r.registers++
		r.members[m.ID] = &memberRecord{Member: m, expires: r.now().Add(r.opts.TTL)}
	}
	r.mu.Unlock()
	if !known {
		r.opts.Logger.Info("fleet member registered", "id", m.ID, "addr", m.Addr)
	}
	httpjson.Reply(rw, http.StatusOK, registerResponse{ID: m.ID, TTLMs: r.opts.TTL.Milliseconds()})
}

func (r *Registry) handleMembers(rw http.ResponseWriter, req *http.Request) {
	ms, err := r.Members(req.Context())
	if err != nil {
		httpjson.Error(rw, http.StatusInternalServerError, err.Error(), "")
		return
	}
	httpjson.Reply(rw, http.StatusOK, struct {
		Members []Member `json:"members"`
	}{Members: ms})
}

func (r *Registry) handleDeregister(rw http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.mu.Lock()
	_, ok := r.members[id]
	if ok {
		delete(r.members, id)
		r.deregisters++
	}
	r.mu.Unlock()
	if ok {
		r.opts.Logger.Info("fleet member deregistered", "id", id)
	}
	// Idempotent: deregistering an already-expired member is fine.
	rw.WriteHeader(http.StatusNoContent)
}

// Members returns the live membership, sorted by ID for deterministic
// scheduling. Registry implements Membership directly so an in-process
// coordinator needs no HTTP round-trip.
func (r *Registry) Members(_ context.Context) ([]Member, error) {
	r.mu.Lock()
	r.pruneLocked()
	ms := make([]Member, 0, len(r.members))
	for _, rec := range r.members {
		ms = append(ms, rec.Member)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return ms, nil
}

func (r *Registry) pruneLocked() {
	now := r.now()
	for id, rec := range r.members {
		if now.After(rec.expires) {
			delete(r.members, id)
			r.expirations++
			r.opts.Logger.Warn("fleet member expired", "id", id, "ttl", r.opts.TTL)
		}
	}
}

// RegistrySnapshot summarizes registry state for /metrics consumers.
type RegistrySnapshot struct {
	Live        int   `json:"live"`
	Registers   int64 `json:"registers"`
	Heartbeats  int64 `json:"heartbeats"`
	Expirations int64 `json:"expirations"`
	Deregisters int64 `json:"deregisters"`
}

// Snapshot returns the current counters (pruning first, so Live is
// honest).
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked()
	return RegistrySnapshot{
		Live:        len(r.members),
		Registers:   r.registers,
		Heartbeats:  r.heartbeats,
		Expirations: r.expirations,
		Deregisters: r.deregisters,
	}
}

// RegisterProm exposes registry counters on a metrics registry.
func (r *Registry) RegisterProm(reg *telemetry.Registry) {
	locked := func(read func() int64) func() int64 {
		return func() int64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return read()
		}
	}
	reg.GaugeFunc("jrpmd_fleet_members",
		"Live fleet members (registered and within TTL).",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.pruneLocked()
			return float64(len(r.members))
		})
	reg.CounterFunc("jrpmd_fleet_registers_total",
		"First-time member registrations.",
		locked(func() int64 { return r.registers }))
	reg.CounterFunc("jrpmd_fleet_heartbeats_total",
		"Heartbeat re-registrations from known members.",
		locked(func() int64 { return r.heartbeats }))
	reg.CounterFunc("jrpmd_fleet_expirations_total",
		"Members pruned after missing heartbeats past the TTL.",
		locked(func() int64 { return r.expirations }))
	reg.CounterFunc("jrpmd_fleet_deregisters_total",
		"Graceful deregistrations (worker drain).",
		locked(func() int64 { return r.deregisters }))
}
