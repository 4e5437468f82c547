package session

import (
	"fmt"
	"sync"

	"jrpm/internal/telemetry"
)

// maxLoopGauges bounds the per-loop observed-speedup series a Metrics
// value will register. Sessions come and go but metric registrations are
// forever (the registry has no unregister, matching Prometheus practice
// for bounded label sets), so without a cap a long-lived daemon churning
// sessions would grow its exposition page without bound.
const maxLoopGauges = 128

// Metrics holds the session subsystem's instruments. All sessions under
// one Manager share a Metrics value. A nil *Metrics is valid and records
// nothing.
type Metrics struct {
	Epochs   *telemetry.Counter
	Promoted *telemetry.Counter
	Demoted  *telemetry.Counter

	reg    *telemetry.Registry
	mu     sync.Mutex
	gauges map[string]bool // "session/loop" pairs already registered
}

// NewMetrics registers the session instruments on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Epochs:   reg.Counter("session_epochs_total", "Adaptive session epochs executed."),
		Promoted: reg.Counter("session_loops_promoted_total", "Loop promotions to the speculative tier."),
		Demoted:  reg.Counter("session_loops_demoted_total", "Loop demotions back to the sequential tier."),
		reg:      reg,
		gauges:   map[string]bool{},
	}
}

// registerLoopGauge exports one loop's latest TLS-observed speedup as
// session_loop_observed_speedup{session,loop}. Idempotent per
// (session, loop) — a loop re-promoted after a demotion keeps its
// original gauge — and silently stops registering past maxLoopGauges.
func (m *Metrics) registerLoopGauge(sessionID string, loop int, fn func() float64) {
	if m == nil || m.reg == nil {
		return
	}
	key := fmt.Sprintf("%s/L%d", sessionID, loop)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gauges[key] || len(m.gauges) >= maxLoopGauges {
		return
	}
	m.gauges[key] = true
	m.reg.GaugeFunc("session_loop_observed_speedup",
		"Latest TLS-observed speedup of one session loop.", fn,
		telemetry.Label{Key: "session", Value: sessionID},
		telemetry.Label{Key: "loop", Value: fmt.Sprintf("L%d", loop)})
}

func (m *Metrics) incEpochs() {
	if m != nil {
		m.Epochs.Inc()
	}
}

func (m *Metrics) incPromoted() {
	if m != nil {
		m.Promoted.Inc()
	}
}

func (m *Metrics) incDemoted() {
	if m != nil {
		m.Demoted.Inc()
	}
}
