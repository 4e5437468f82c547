package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"jrpm"
	"jrpm/internal/session"
)

// SessionRequest is the body of POST /v1/sessions: the "session" job
// kind. Unlike a one-shot pipeline job it does not ride the worker
// queue — it starts a long-lived adaptive session (internal/session)
// that continuously profiles, recompiles and re-tiers the program until
// its epoch or cycle bound, or until DELETE /v1/sessions/{id}.
type SessionRequest struct {
	// Exactly one of Source / Workload, as for jobs.
	Source   string               `json:"source,omitempty"`
	Workload string               `json:"workload,omitempty"`
	Scale    float64              `json:"scale,omitempty"`
	Ints     map[string][]int64   `json:"ints,omitempty"`
	Floats   map[string][]float64 `json:"floats,omitempty"`
	Optimize bool                 `json:"optimize,omitempty"`

	// Epochs and CycleBudget bound the session (both zero: the session
	// default of session.DefaultEpochs epochs applies).
	Epochs      int   `json:"epochs,omitempty"`
	CycleBudget int64 `json:"cycle_budget,omitempty"`
	// SamplePeriod configures the per-epoch sampling profiler; subject to
	// the same floor as jobs (session.DefaultSamplePeriod when 0).
	SamplePeriod int64 `json:"sample_period,omitempty"`
	// Jitter regenerates the workload input each epoch at a scale
	// jittered around Scale, seeded by Seed — sampled-traffic mode.
	// Requires Workload (inline sources have fixed inputs).
	Jitter bool   `json:"jitter,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// Thresholds overrides the tiering policy; nil keeps the defaults,
	// and zero fields within keep their default values.
	Thresholds *session.Thresholds `json:"thresholds,omitempty"`
}

// baseScale is the workload scale the session's inputs are built at:
// Scale, or 1 when unset. Jittered traffic draws around it.
func (r *SessionRequest) baseScale() float64 { return inputScale(r.Scale) }

func (r *SessionRequest) validate() error {
	if err := validateSamplePeriod(r.SamplePeriod); err != nil {
		return err
	}
	if r.Epochs < 0 || r.CycleBudget < 0 {
		return fmt.Errorf("epochs and cycle_budget must not be negative")
	}
	if r.Jitter && r.Workload == "" {
		return fmt.Errorf("jitter requires a workload (inline sources have fixed inputs)")
	}
	// Every epoch builds its input at its own jittered scale, so the
	// largest draw, not the base, must stay within MaxScale.
	if hi := session.JitterMax(r.baseScale()); r.Jitter && hi > MaxScale {
		return fmt.Errorf("scale %v with jitter draws epoch scales up to %.4g, over %d: use scale <= %.4g",
			r.baseScale(), hi, MaxScale, MaxScale/session.JitterMax(1))
	}
	jr := Request{Source: r.Source, Workload: r.Workload, Scale: r.Scale}
	_, _, err := jr.program()
	return err
}

// StartSession validates req, compiles (or cache-hits) the program, and
// launches a session under the pool's manager.
func (p *Pool) StartSession(req SessionRequest) (*session.Session, error) {
	if p.stopped.Load() {
		return nil, ErrStopped
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	jr := Request{Source: req.Source, Workload: req.Workload, Scale: req.Scale,
		Ints: req.Ints, Floats: req.Floats, Optimize: req.Optimize}
	src, w, err := jr.program()
	if err != nil {
		return nil, err
	}
	opts := jr.options()

	// Sessions share the job path's content-addressed artifact cache: an
	// adaptive session over a program the daemon has already compiled
	// starts without paying compilation again.
	compiled, _, err := p.Compile(src, opts)
	if err != nil {
		return nil, err
	}

	name := req.Workload
	if name == "" {
		name = "inline"
	}
	// A fixed workload session takes its input from the pool's memo; a
	// jittered one builds each epoch's input at that epoch's scale.
	var traffic session.Traffic
	switch {
	case req.Jitter:
		traffic = session.JitteredTraffic(w.NewInput, req.baseScale(), req.Seed)
	case w != nil:
		traffic = session.FixedTraffic(p.inputs.get(w, req.baseScale()))
	default:
		traffic = session.FixedTraffic(jrpm.Input{Ints: req.Ints, Floats: req.Floats})
	}
	cfg := session.Config{
		Compiled:     compiled,
		Name:         name,
		Traffic:      traffic,
		Epochs:       req.Epochs,
		CycleBudget:  req.CycleBudget,
		SamplePeriod: req.SamplePeriod,
		Opts:         opts,
	}
	if req.Thresholds != nil {
		cfg.Thresholds = *req.Thresholds
	}
	return p.sessions.Start(cfg)
}

// SessionSummary is one row of GET /v1/sessions: enough to see where
// every session stands without shipping full tier histories.
type SessionSummary struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	State       string `json:"state"`
	Epoch       int    `json:"epoch"`
	CyclesUsed  int64  `json:"cycles_used"`
	Loops       int    `json:"loops"`
	Speculative int    `json:"speculative"`
	Promotions  int    `json:"promotions"`
	Demotions   int    `json:"demotions"`
}

func summarize(v session.View) SessionSummary {
	s := SessionSummary{
		ID:         v.ID,
		Name:       v.Name,
		State:      v.State,
		Epoch:      v.Epoch,
		CyclesUsed: v.CyclesUsed,
		Loops:      len(v.Loops),
	}
	for _, lt := range v.Loops {
		if lt.Tier == "speculative" {
			s.Speculative++
		}
		s.Promotions += lt.Promotions
		s.Demotions += lt.Demotions
	}
	return s
}

// decodeSessionRequest decodes a POST /v1/sessions body, refusing
// unknown fields. Pool.StartSession validates what it returns.
func decodeSessionRequest(body io.Reader) (SessionRequest, error) {
	var req SessionRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) submitSession(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSessionRequest(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	sess, err := s.pool.StartSession(req)
	switch {
	case errors.Is(err, ErrStopped):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		// Both validation failures and the running-session limit land
		// here; the limit is the client's to resolve (stop a session), so
		// 429 for that, 400 otherwise.
		code := http.StatusBadRequest
		if errors.Is(err, session.ErrLimit) {
			w.Header().Set("Retry-After", "1")
			code = http.StatusTooManyRequests
		}
		writeError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":    sess.ID,
		"state": string(sess.State()),
	})
}

func (s *Server) listSessions(w http.ResponseWriter, _ *http.Request) {
	views := s.pool.Sessions().List()
	sums := make([]SessionSummary, len(views))
	for i, v := range views {
		sums[i] = summarize(v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": sums})
}

func (s *Server) getSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.pool.Sessions().Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	s.reply(w, r, sess.Done(), func() any { return sess.View() })
}

func (s *Server) stopSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.pool.Sessions().Stop(id) {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      id,
		"stopped": true,
	})
}
