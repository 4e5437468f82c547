package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"jrpm"
	"jrpm/internal/telemetry"
	"jrpm/internal/trace"
)

// maxRequestBody bounds POST bodies (sources plus inline input arrays).
const maxRequestBody = 16 << 20

// Server is the HTTP face of a Pool.
//
//	POST   /v1/jobs           submit a job (202 + {"id": ...})
//	GET    /v1/jobs/{id}      job status/result; ?wait=1 long-polls until
//	                          done or the server-side bound elapses (202)
//	DELETE /v1/jobs/{id}      cancel a job
//	GET    /v1/metrics        operational counters and latency histograms;
//	                          ?format=prom switches to Prometheus text
//	GET    /metrics           Prometheus text exposition (scraper default)
//	GET    /v1/healthz        liveness + pool sizing
//	GET    /v1/readyz         readiness: queue depth, live jobs, drain
//	                          state; 503 while draining
//	GET    /v1/version        module version + trace-format version
//	GET    /v1/traces/spans   collected spans as JSON; ?trace_id= filters
//	POST   /v1/sessions       start an adaptive session (202 + {"id": ...})
//	GET    /v1/sessions       list sessions with epoch + tier summary
//	GET    /v1/sessions/{id}  full session view: per-loop tier records
//	                          plus the transition history; ?wait=1
//	                          long-polls as for jobs
//	DELETE /v1/sessions/{id}  stop a session (it keeps its final state)
type Server struct {
	pool  *Pool
	start time.Time

	// ExtraMetrics, when set, is invoked on every GET /v1/metrics and its
	// result attached as the "cluster" section; jrpmd's worker mode plugs
	// the cluster.Worker snapshot in here without service importing the
	// cluster package.
	ExtraMetrics func() any

	// Tracer, when set, is the daemon's span tracer; GET /v1/traces/spans
	// serves its collector, and the pool's job spans feed it (the caller
	// wires pool.SetTracer with the same tracer).
	Tracer *telemetry.Tracer
}

// NewServer wraps a pool.
func NewServer(pool *Pool) *Server {
	return &Server{pool: pool, start: time.Now()}
}

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// Register mounts the API routes on an existing mux. jrpmd composes
// them with the cluster worker's routes on ONE mux so Go's pattern
// precedence applies across both route sets — in particular the literal
// GET /v1/traces/spans must win over the worker's GET /v1/traces/{hash},
// which would shadow it if the API lived behind a catch-all "/" mount.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("POST /v1/sessions", s.submitSession)
	mux.HandleFunc("GET /v1/sessions", s.listSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.getSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.stopSession)
	mux.HandleFunc("GET /v1/metrics", s.metrics)
	mux.HandleFunc("GET /metrics", s.prom)
	mux.HandleFunc("GET /v1/healthz", s.healthz)
	mux.HandleFunc("GET /v1/readyz", s.readyz)
	mux.HandleFunc("GET /v1/version", s.version)
	mux.HandleFunc("GET /v1/traces/spans", s.spans)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// TenantHeader names the request header that selects the quota and
// fair-dequeue lane a submission is charged to; absent means
// DefaultTenant.
const TenantHeader = "X-JRPM-Tenant"

// decodeRequest decodes a POST /v1/jobs body, refusing unknown fields.
// Pool.SubmitCtx validates what it returns.
func decodeRequest(body io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	req.Tenant = r.Header.Get(TenantHeader)
	job, err := s.pool.SubmitCtx(r.Context(), req)
	var quota *QuotaError
	switch {
	case errors.As(err, &quota):
		// Shed fast with the bucket's own refill estimate so a
		// well-behaved client backs off exactly as long as needed.
		secs := int(quota.RetryAfter/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrStopped):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":    job.ID,
		"state": string(StateQueued),
	})
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	job, ok := s.pool.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.reply(w, r, job.Done(), func() any { return job.View() })
}

// reply answers a GET of one run with its view. With ?wait=1 it first
// long-polls until done closes. The long-poll is bounded server-side so
// a slow run cannot pin a connection forever; a timed-out poll gets 202
// + a retry hint and the client simply polls again.
func (s *Server) reply(w http.ResponseWriter, r *http.Request, done <-chan struct{}, view func() any) {
	code := http.StatusOK
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		bound := time.NewTimer(s.pool.Config().LongPoll)
		defer bound.Stop()
		select {
		case <-done:
		case <-r.Context().Done():
			return
		case <-bound.C:
			w.Header().Set("Retry-After", "1")
			code = http.StatusAccepted
		}
	}
	writeJSON(w, code, view())
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	out, err := s.pool.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if out == CancelNoop {
		// The job already reached a terminal state: there is nothing to
		// cancel, and pretending otherwise (the old 200 {"canceled":
		// false}) hid races from clients. 409 states the conflict.
		job, _ := s.pool.Get(r.PathValue("id"))
		writeError(w, http.StatusConflict,
			"job already "+string(job.View().State)+"; nothing to cancel")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"canceled": true})
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		s.prom(w, r)
		return
	}
	m := s.pool.Metrics().snapshot()
	m.CacheSize = s.pool.Cache().Len()
	m.Workers = s.pool.Config().Workers
	m.QueueDepth = s.pool.Config().QueueDepth
	m.QueueLength = s.pool.QueueLength()
	m.TraceCache = s.pool.Traces().Snapshot()
	m.InputCache = s.pool.inputs.snapshot()
	m.Sessions = s.pool.sessionsSnapshot()
	m.Tenants = s.pool.Tenants()
	if s.ExtraMetrics != nil {
		m.Cluster = s.ExtraMetrics()
	}
	writeJSON(w, http.StatusOK, m)
}

// VersionPayload is the body of GET /v1/version: module version,
// trace-format version, and the Go runtime. The CLIs' -version flags
// print the same payload so a human and a preflighting coordinator see
// identical facts.
func VersionPayload() map[string]any {
	return map[string]any{
		"module":       jrpm.Version,
		"trace_format": trace.Version,
		"go":           runtime.Version(),
	}
}

// PrintVersion writes the -version line of the command named cmd: the
// VersionPayload keys in order.
func PrintVersion(w io.Writer, cmd string) {
	p := VersionPayload()
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, cmd)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, p[k])
	}
	fmt.Fprintln(w)
}

func (s *Server) version(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, VersionPayload())
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"workers":   s.pool.Config().Workers,
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// readyz is the load-balancer / coordinator preflight: distinct from
// healthz (liveness), it answers 503 the moment a drain begins so
// schedulers stop routing work here while in-flight jobs finish.
func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"queue_length": s.pool.QueueLength(),
		"queue_depth":  s.pool.Config().QueueDepth,
		"live_jobs":    s.pool.Active(),
		"draining":     s.pool.Draining(),
	}
	if s.pool.Draining() {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ready"
	writeJSON(w, http.StatusOK, body)
}

// prom renders the pool's metrics registry as Prometheus text.
func (s *Server) prom(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.pool.Registry().WriteProm(w) //nolint:errcheck // client gone; nothing to do
}

// spans serves the collected spans; ?trace_id= restricts the dump to
// one distributed trace (what jrpm sweep -trace-out fetches from each
// worker to stitch a sweep trace together).
func (s *Server) spans(w http.ResponseWriter, r *http.Request) {
	var sd []telemetry.SpanData
	var dropped int64
	if s.Tracer != nil {
		col := s.Tracer.Collector()
		sd = col.Snapshot(r.URL.Query().Get("trace_id"))
		dropped = col.Dropped()
	}
	if sd == nil {
		sd = []telemetry.SpanData{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"spans":   sd,
		"dropped": dropped,
	})
}
