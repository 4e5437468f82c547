package session

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"jrpm/internal/runs"
	"jrpm/internal/telemetry"
)

// DefaultMaxSessions bounds concurrently running sessions per Manager
// when the configured limit is non-positive.
const DefaultMaxSessions = 4

// ErrLimit is returned by Manager.Start when the running-session limit
// is reached; the HTTP layer maps it to 429.
var ErrLimit = errors.New("session: running-session limit reached")

// Manager owns the sessions of one process (the daemon keeps one on its
// Pool; the CLI builds a throwaway one). Sessions run on their own
// goroutines — they are long-lived loops, not queue jobs, so they do not
// occupy worker slots meant for one-shot profile requests.
type Manager struct {
	limit   int
	metrics *Metrics
	// sessions keeps the running ones and, as the job pool keeps
	// finished jobs, sixteen times the running limit of finished ones.
	sessions *runs.Table[*Session]

	mu     sync.Mutex
	logger *telemetry.Logger
	tracer *telemetry.Tracer
	seq    int
}

// NewManager builds a manager allowing up to limit concurrently running
// sessions (DefaultMaxSessions when limit <= 0). metrics and logger may
// be nil.
func NewManager(limit int, metrics *Metrics, logger *telemetry.Logger) *Manager {
	if limit <= 0 {
		limit = DefaultMaxSessions
	}
	return &Manager{
		limit:    limit,
		metrics:  metrics,
		logger:   logger,
		sessions: runs.New[*Session](limit, 16*limit),
	}
}

// SetTracer attaches a tracer to sessions started afterwards.
func (m *Manager) SetTracer(tr *telemetry.Tracer) {
	m.mu.Lock()
	m.tracer = tr
	m.mu.Unlock()
}

// SetLogger routes decision logs of sessions started afterwards to l.
func (m *Manager) SetLogger(l *telemetry.Logger) {
	m.mu.Lock()
	m.logger = l
	m.mu.Unlock()
}

// Start launches a session from cfg on its own goroutine and returns
// it. The manager's logger, tracer and metrics are injected unless cfg
// already carries its own. Fails when the running-session limit is
// reached.
func (m *Manager) Start(cfg Config) (*Session, error) {
	m.mu.Lock()
	if cfg.Logger == nil {
		cfg.Logger = m.logger
	}
	if cfg.Tracer == nil {
		cfg.Tracer = m.tracer
	}
	if cfg.Metrics == nil {
		cfg.Metrics = m.metrics
	}
	logger := cfg.Logger
	s, err := New(cfg)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	s.ID = fmt.Sprintf("s%08d", m.seq+1)
	if !m.sessions.Add(s.ID, s) {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (limit %d)", ErrLimit, m.limit)
	}
	m.seq++
	s.onFinish = func() { m.sessions.Finish(s.ID) }
	m.mu.Unlock()

	logger.Info("session started", "session", s.ID, "name", cfg.Name,
		"epochs", cfg.Epochs, "cycle_budget", cfg.CycleBudget)
	go s.Run(context.Background())
	return s, nil
}

// Get returns a session by id.
func (m *Manager) Get(id string) (*Session, bool) { return m.sessions.Get(id) }

// List snapshots the sessions the manager holds, in start order.
func (m *Manager) List() []View {
	sessions := m.sessions.List()
	views := make([]View, len(sessions))
	for i, s := range sessions {
		views[i] = s.View()
	}
	return views
}

// Stop cancels a session by id (without waiting) and reports whether it
// exists.
func (m *Manager) Stop(id string) bool {
	s, ok := m.Get(id)
	if !ok {
		return false
	}
	s.Stop()
	return true
}

// StopAll cancels every session and waits for them to finish or for ctx
// to end — the daemon calls this during graceful drain.
func (m *Manager) StopAll(ctx context.Context) {
	sessions := m.sessions.List()
	for _, s := range sessions {
		s.Stop()
	}
	for _, s := range sessions {
		select {
		case <-s.Done():
		case <-ctx.Done():
			return
		}
	}
}

// Counts is the manager's aggregate state for metrics snapshots.
type Counts struct {
	Started int `json:"started"` // sessions ever started
	Active  int `json:"active"`  // sessions currently pending or running
}

// Counts reports session totals.
func (m *Manager) Counts() Counts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Counts{Started: m.seq, Active: m.sessions.Live()}
}
