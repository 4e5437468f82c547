// Package loadgen is the open-loop load harness for the jrpm serving
// stack. A Spec describes production-shaped traffic — a workload mix
// drawn from the paper's 26 kernels or from a generated corpus manifest
// (cold compiles, warm cache hits, trace replays, adaptive-session
// epochs), an arrival process
// (constant-rate, Poisson, or a stepped ramp), and a tenant population —
// and the runner fires it open-loop: requests launch at their scheduled
// instants whether or not earlier ones have completed, and latency is
// measured from the *intended* send time, so queueing delay inside the
// system cannot hide in the generator (no coordinated omission).
//
// The schedule is a pure function of the spec (seeded PRNG, no wall
// clock), so the same spec + seed reproduces the identical request
// sequence byte-for-byte — Schedule.Fingerprint pins that.
//
// Every run drives a jrpmd's HTTP API through Remote, so a latency
// includes the transport and JSON stages every client pays. See
// cmd/jrpmbench.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"jrpm/internal/workloads"
)

// Spec is one load scenario, loadable from JSON (cmd/jrpmbench -spec).
type Spec struct {
	// Name labels the run in tables and BENCH_load.json keys.
	Name string `json:"name"`
	// Seed drives every random choice (arrival gaps, class picks, kernel
	// picks, tenant picks). Same seed, same schedule.
	Seed uint64 `json:"seed"`

	Arrival ArrivalSpec `json:"arrival"`
	Mix     MixSpec     `json:"mix"`

	// Workloads restricts the kernel pool to these names; empty means
	// all 26 registered kernels.
	Workloads []string `json:"workloads,omitempty"`
	// Corpus points at a corpus manifest (jrpm corpus generate -o): the
	// kernel pool becomes the manifest's generated programs, regenerated
	// from their recorded parameters and submitted as inline sources.
	// Mutually exclusive with Workloads.
	Corpus string `json:"corpus,omitempty"`
	// Scale stretches every kernel's dataset (default 1.0). Load specs
	// usually run small scales: the harness measures the serving stack,
	// not the VM.
	Scale float64 `json:"scale,omitempty"`

	// Tenants is the tenant population with relative weights; empty
	// means one anonymous tenant. Weights need not sum to 1.
	Tenants []TenantWeight `json:"tenants,omitempty"`

	// DeadlineMs / TimeoutMs ride on every generated job request.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	TimeoutMs  int64 `json:"timeout_ms,omitempty"`

	// MaxOutstanding is the open-loop safety valve: requests that would
	// exceed it are counted as dropped by the harness (class "dropped")
	// instead of launched. <= 0 means 4096.
	MaxOutstanding int `json:"max_outstanding,omitempty"`
}

// ArrivalSpec selects and parameterizes the arrival process.
type ArrivalSpec struct {
	// Process is "constant", "poisson", or "ramp".
	Process string `json:"process"`
	// RatePerSec and DurationMs parameterize constant and poisson.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	DurationMs int64   `json:"duration_ms,omitempty"`
	// Steps parameterizes ramp: constant-rate segments back to back.
	Steps []RampStep `json:"steps,omitempty"`
}

// RampStep is one constant-rate segment of a stepped ramp.
type RampStep struct {
	RatePerSec float64 `json:"rate_per_sec"`
	DurationMs int64   `json:"duration_ms"`
}

// MixSpec weights the four operation classes; weights need not sum to
// 1 (they are normalized). All zero means warm-only.
type MixSpec struct {
	// Cold submits a never-seen-before source (a kernel with a unique
	// comment suffix) forcing a full compile.
	Cold float64 `json:"cold"`
	// Warm submits a kernel by name; after the prewarm pass these hit
	// the artifact cache.
	Warm float64 `json:"warm"`
	// Replay submits an analyze_trace job against a recording captured
	// during setup — zero VM executions.
	Replay float64 `json:"replay"`
	// Session starts a short adaptive session (profile → select →
	// re-tier epochs).
	Session float64 `json:"session"`
}

// TenantWeight is one tenant's share of the offered load.
type TenantWeight struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// LoadSpec reads and validates a Spec from a JSON file.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("loadgen: parse %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return &s, nil
}

// maxOps bounds the requests one schedule holds: rate_per_sec times
// duration, summed over ramp steps. Build materializes every request
// before the run starts.
const maxOps = 1 << 20

// maxDurationMs is the longest schedule a time.Duration can span.
const maxDurationMs = math.MaxInt64 / int64(time.Millisecond)

// Validate checks the spec for the mistakes that would otherwise
// surface as a confusing empty run, and bounds the schedule Build makes.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec needs a name")
	}
	steps := s.Arrival.Steps
	switch s.Arrival.Process {
	case "constant", "poisson":
		if !(s.Arrival.RatePerSec > 0) {
			return fmt.Errorf("arrival.rate_per_sec must be > 0")
		}
		if s.Arrival.DurationMs <= 0 {
			return fmt.Errorf("arrival.duration_ms must be > 0")
		}
		steps = []RampStep{{RatePerSec: s.Arrival.RatePerSec, DurationMs: s.Arrival.DurationMs}}
	case "ramp":
		if len(steps) == 0 {
			return fmt.Errorf("ramp arrival needs steps")
		}
		for i, st := range steps {
			if !(st.RatePerSec > 0) || st.DurationMs <= 0 {
				return fmt.Errorf("ramp step %d: rate_per_sec and duration_ms must be > 0", i)
			}
		}
	default:
		return fmt.Errorf("arrival.process %q: want constant, poisson, or ramp", s.Arrival.Process)
	}
	var ms int64
	var ops float64
	for _, st := range steps {
		if st.DurationMs > maxDurationMs-ms {
			return fmt.Errorf("arrival: duration_ms adds up past %d", maxDurationMs)
		}
		ms += st.DurationMs
		ops += st.RatePerSec * float64(st.DurationMs) / 1e3
	}
	if !(ops <= maxOps) {
		return fmt.Errorf("arrival: rate_per_sec x duration_ms schedules %.4g requests, over %d", ops, maxOps)
	}
	m := s.Mix
	if m.Cold < 0 || m.Warm < 0 || m.Replay < 0 || m.Session < 0 {
		return fmt.Errorf("mix weights must not be negative")
	}
	for _, tw := range s.Tenants {
		if tw.Name == "" || tw.Weight <= 0 {
			return fmt.Errorf("tenant %+v: need a name and a positive weight", tw)
		}
	}
	if s.DeadlineMs < 0 || s.TimeoutMs < 0 {
		return fmt.Errorf("deadline_ms and timeout_ms must not be negative")
	}
	for i, name := range s.Workloads {
		if _, err := workloads.ByName(name); err != nil {
			return fmt.Errorf("workloads[%d]: %w", i, err)
		}
	}
	if s.Corpus != "" {
		if len(s.Workloads) > 0 {
			return fmt.Errorf("corpus: mutually exclusive with workloads")
		}
		if _, err := os.Stat(s.Corpus); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
	}
	return nil
}

// Duration is the schedule's total span.
func (s *Spec) Duration() time.Duration {
	switch s.Arrival.Process {
	case "ramp":
		var total int64
		for _, st := range s.Arrival.Steps {
			total += st.DurationMs
		}
		return time.Duration(total) * time.Millisecond
	default:
		return time.Duration(s.Arrival.DurationMs) * time.Millisecond
	}
}

// kernels resolves the spec's kernel pool (names only; inputs are
// generated by the executing side).
func (s *Spec) kernels() []string {
	if len(s.Workloads) > 0 {
		return s.Workloads
	}
	all := workloads.All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Meta.Name
	}
	return names
}
