package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

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

	mu       sync.Mutex
	logger   *telemetry.Logger
	tracer   *telemetry.Tracer
	sessions map[string]*Session
	finished []string // ids of terminal sessions still in sessions, oldest first
	seq      int
}

// retainFinished bounds the terminal sessions a manager keeps for GET
// /v1/sessions/{id}, as the job pool bounds finished jobs: sixteen times
// the running limit. Past it the oldest finished sessions are forgotten
// and answer 404 like an unknown id; running sessions are always kept.
func (m *Manager) retainFinished() int { return 16 * m.limit }

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
		sessions: map[string]*Session{},
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
	running := 0
	for _, s := range m.sessions {
		if st := s.State(); st == StatePending || st == StateRunning {
			running++
		}
	}
	if running >= m.limit {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (limit %d)", ErrLimit, m.limit)
	}
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
	m.seq++
	s.ID = fmt.Sprintf("s%08d", m.seq)
	m.sessions[s.ID] = s
	s.onFinish = func() { m.retire(s.ID) }
	m.mu.Unlock()

	logger.Info("session started", "session", s.ID, "name", cfg.Name,
		"epochs", cfg.Epochs, "cycle_budget", cfg.CycleBudget)
	go s.Run(context.Background())
	return s, nil
}

// retire records a session's end and forgets the oldest finished
// session past retainFinished.
func (m *Manager) retire(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, id)
	if len(m.finished) > m.retainFinished() {
		delete(m.sessions, m.finished[0])
		m.finished = m.finished[1:]
	}
}

// Get returns a session by id.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// List snapshots the sessions the manager holds, in start order.
func (m *Manager) List() []View {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	views := make([]View, len(sessions))
	for i, s := range sessions {
		views[i] = s.View()
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
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
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
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
	c := Counts{Started: m.seq}
	for _, s := range m.sessions {
		if st := s.State(); st == StatePending || st == StateRunning {
			c.Active++
		}
	}
	return c
}
