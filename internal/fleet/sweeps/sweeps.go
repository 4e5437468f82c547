// Package sweeps exposes cluster sweeps as a streaming HTTP service:
// submit a grid with POST /v1/sweeps, follow its rows as NDJSON over
// GET /v1/sweeps/{id}/rows (resumable by cursor, so a dropped
// connection re-attaches without losing or duplicating rows), and
// cancel with DELETE. The streamed rows, re-sorted into grid order, are
// byte-identical (under cluster.Canonical) to the final merged result —
// streaming changes delivery, never content.
package sweeps

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"jrpm"
	"jrpm/internal/cluster"
	"jrpm/internal/core"
	"jrpm/internal/httpjson"
	"jrpm/internal/hydra"
	"jrpm/internal/runs"
	"jrpm/internal/telemetry"
)

// Runner executes a sweep grid with a live row feed; *cluster.Coordinator
// satisfies it.
type Runner interface {
	SweepStream(ctx context.Context, grid cluster.Grid, onRow func(trace, config int, row cluster.OutcomeRow)) (*cluster.Result, error)
}

// DefaultMaxSweeps bounds the sweeps executing at once (a submission
// past it gets 429) and, separately, the finished sweeps kept for GET.
const DefaultMaxSweeps = 16

// Options configures the sweep server.
type Options struct {
	Logger *telemetry.Logger
}

// Server owns the sweep runs. Create with NewServer, mount with
// Register.
type Server struct {
	runner Runner
	opts   Options
	runs   *runs.Table[*run] // live: state running

	mu sync.Mutex
	// The run ledger, moved with each run's state under mu; the
	// Prometheus counters read it without the lock.
	started, completed, canceled, failed atomic.Int64
}

// Run states.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// run is one submitted sweep. rows grows append-only under mu; cond
// wakes streamers when rows or state change.
type run struct {
	id     string
	cond   *sync.Cond // on Server.mu
	cancel context.CancelFunc

	rows   []Row
	state  string
	errMsg string
	result *cluster.Result
}

// Row is one streamed NDJSON line: the Seq cursor (position in arrival
// order), the grid cell, and its outcome.
type Row struct {
	Seq    int                `json:"seq"`
	Trace  int                `json:"trace"`
	Config int                `json:"config"`
	Row    cluster.OutcomeRow `json:"row"`
}

// trailer is the final NDJSON line of a row stream.
type trailer struct {
	Done  bool   `json:"done"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	Rows  int    `json:"rows"`
}

// TraceInput is one recording in a sweep submission; Data is base64 in
// JSON.
type TraceInput struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Data   []byte `json:"data"`
}

// SweepRequest is the body of POST /v1/sweeps.
type SweepRequest struct {
	Traces  []TraceInput   `json:"traces"`
	Configs []hydra.Config `json:"configs"`
	Opts    jrpm.Options   `json:"opts"`
}

// Status is the body of GET /v1/sweeps/{id}.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Rows  int    `json:"rows"`
	Error string `json:"error,omitempty"`
	// Outcomes is the merged [trace][config] matrix, included for
	// terminal runs when ?result=1.
	Outcomes [][]cluster.OutcomeRow `json:"outcomes,omitempty"`
	Degraded bool                   `json:"degraded,omitempty"`
}

// NewServer builds a sweep server over a Runner.
func NewServer(r Runner, opts Options) *Server {
	return &Server{runner: r, opts: opts, runs: runs.New[*run](DefaultMaxSweeps, DefaultMaxSweeps)}
}

// Register mounts the sweep API on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sweeps", s.submit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.status)
	mux.HandleFunc("GET /v1/sweeps/{id}/rows", s.streamRows)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.cancelRun)
}

// RegisterProm exposes the server's counters on a Prometheus registry.
func (s *Server) RegisterProm(reg *telemetry.Registry) {
	reg.GaugeFunc("jrpmd_sweeps_active", "Sweep runs currently executing.", func() float64 {
		return float64(s.runs.Live())
	})
	reg.CounterFunc("jrpmd_sweeps_started_total", "Sweep runs accepted.", s.started.Load)
	reg.CounterFunc("jrpmd_sweeps_completed_total", "Sweep runs finished successfully.", s.completed.Load)
	reg.CounterFunc("jrpmd_sweeps_canceled_total", "Sweep runs canceled by DELETE.", s.canceled.Load)
	reg.CounterFunc("jrpmd_sweeps_failed_total", "Sweep runs that ended in error.", s.failed.Load)
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

func (s *Server) submit(rw http.ResponseWriter, req *http.Request) {
	grid, err := decodeSweepRequest(http.MaxBytesReader(rw, req.Body, 1<<30))
	if err != nil {
		httpjson.Error(rw, http.StatusBadRequest, err.Error(), "")
		return
	}

	// The sweep outlives the submission request: detach from the request
	// context but keep the caller's trace linkage for stitched spans.
	ctx, cancel := context.WithCancel(context.WithoutCancel(req.Context()))
	r := &run{id: newID(), cond: sync.NewCond(&s.mu), cancel: cancel, state: StateRunning}
	s.mu.Lock()
	if !s.runs.Add(r.id, r) {
		s.mu.Unlock()
		cancel()
		httpjson.Error(rw, http.StatusTooManyRequests, "all sweep slots are running", "")
		return
	}
	s.started.Add(1)
	s.mu.Unlock()

	go s.execute(ctx, r, grid)

	httpjson.Reply(rw, http.StatusAccepted, map[string]string{"id": r.id})
}

// decodeSweepRequest decodes and validates a POST /v1/sweeps body into
// the grid to run. It needs at least one trace and one config, recording
// bytes on every trace, and store tables within core.CheckGrid's bounds,
// so that no accepted grid can make the model allocate without limit.
// Every error it returns is the client's: HTTP 400.
func decodeSweepRequest(body io.Reader) (cluster.Grid, error) {
	var sr SweepRequest
	if err := json.NewDecoder(body).Decode(&sr); err != nil {
		return cluster.Grid{}, fmt.Errorf("bad sweep request: %w", err)
	}
	if len(sr.Traces) == 0 || len(sr.Configs) == 0 {
		return cluster.Grid{}, errors.New("sweep needs at least one trace and one config")
	}
	if err := core.CheckGrid(sr.Configs); err != nil {
		return cluster.Grid{}, err
	}
	grid := cluster.Grid{Configs: sr.Configs, Opts: sr.Opts}
	for _, t := range sr.Traces {
		if len(t.Data) == 0 {
			return cluster.Grid{}, fmt.Errorf("trace %q has no recording bytes", t.Name)
		}
		grid.Traces = append(grid.Traces, cluster.GridTrace{Name: t.Name, Source: t.Source, Data: t.Data})
	}
	return grid, nil
}

func (s *Server) execute(ctx context.Context, r *run, grid cluster.Grid) {
	res, err := s.runner.SweepStream(ctx, grid, func(ti, ci int, row cluster.OutcomeRow) {
		s.mu.Lock()
		r.rows = append(r.rows, Row{Seq: len(r.rows), Trace: ti, Config: ci, Row: row})
		r.cond.Broadcast()
		s.mu.Unlock()
	})
	s.mu.Lock()
	switch {
	case r.state == StateCanceled:
		// DELETE answered 204 and counted the run: it stays canceled
		// whatever the runner returned.
	case err == nil:
		r.state = StateDone
		r.result = res
		s.completed.Add(1)
	default:
		r.state = StateFailed
		r.errMsg = err.Error()
		s.failed.Add(1)
	}
	s.runs.Finish(r.id)
	r.cond.Broadcast()
	s.mu.Unlock()
	r.cancel()
	if err != nil && r.state == StateFailed {
		s.opts.Logger.WarnCtx(ctx, "sweeps: run failed", "id", r.id, "err", err)
	}
}

func (s *Server) status(rw http.ResponseWriter, req *http.Request) {
	r, ok := s.runs.Get(req.PathValue("id"))
	if !ok {
		httpjson.Error(rw, http.StatusNotFound, "no such sweep", "")
		return
	}
	s.mu.Lock()
	st := Status{ID: r.id, State: r.state, Rows: len(r.rows), Error: r.errMsg}
	if req.URL.Query().Get("result") == "1" && r.result != nil {
		st.Outcomes = r.result.Outcomes
		st.Degraded = r.result.Degraded
	}
	s.mu.Unlock()
	httpjson.Reply(rw, http.StatusOK, st)
}

func (s *Server) cancelRun(rw http.ResponseWriter, req *http.Request) {
	r, ok := s.runs.Get(req.PathValue("id"))
	if !ok {
		httpjson.Error(rw, http.StatusNotFound, "no such sweep", "")
		return
	}
	s.mu.Lock()
	if r.state != StateRunning {
		s.mu.Unlock()
		httpjson.Error(rw, http.StatusConflict, "sweep already "+r.state, "")
		return
	}
	r.state = StateCanceled
	s.canceled.Add(1)
	s.runs.Finish(r.id)
	r.cond.Broadcast()
	s.mu.Unlock()
	r.cancel()
	rw.WriteHeader(http.StatusNoContent)
}

// streamRows serves GET /v1/sweeps/{id}/rows?cursor=N: NDJSON rows from
// seq N on, flushed as they arrive, blocking while the sweep runs and
// ending with a done trailer once it is terminal. A client that
// disconnects resumes from its last seen seq.
func (s *Server) streamRows(rw http.ResponseWriter, req *http.Request) {
	cursor := 0
	if cs := req.URL.Query().Get("cursor"); cs != "" {
		n, err := strconv.Atoi(cs)
		if err != nil || n < 0 {
			httpjson.Error(rw, http.StatusBadRequest, "bad cursor", "")
			return
		}
		cursor = n
	}
	r, ok := s.runs.Get(req.PathValue("id"))
	if !ok {
		httpjson.Error(rw, http.StatusNotFound, "no such sweep", "")
		return
	}

	// Wake the cond-wait below when the client goes away.
	ctx := req.Context()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			r.cond.Broadcast()
			s.mu.Unlock()
		case <-watchDone:
		}
	}()

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	flusher, _ := rw.(http.Flusher)
	enc := json.NewEncoder(rw)
	for {
		s.mu.Lock()
		for cursor >= len(r.rows) && r.state == StateRunning && ctx.Err() == nil {
			r.cond.Wait()
		}
		batch := append([]Row(nil), r.rows[min(cursor, len(r.rows)):]...)
		state, errMsg, total := r.state, r.errMsg, len(r.rows)
		s.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		for _, row := range batch {
			if enc.Encode(row) != nil {
				return
			}
			cursor++
		}
		if state != StateRunning && cursor >= total {
			enc.Encode(trailer{Done: true, State: state, Error: errMsg, Rows: total}) //nolint:errcheck
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
