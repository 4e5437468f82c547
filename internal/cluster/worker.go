package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"jrpm"
	"jrpm/internal/core"
	"jrpm/internal/httpjson"
	"jrpm/internal/service"
	"jrpm/internal/telemetry"
	"jrpm/internal/trace"
)

// maxTraceBody bounds PUT /v1/traces uploads and POST /v1/shards bodies.
const maxTraceBody = 512 << 20

// Worker serves the cluster's worker-side endpoints on top of a service
// pool, reusing its content-addressed caches:
//
//	POST /v1/shards         replay a cached recording under N configs
//	PUT  /v1/traces/{hash}  store trace bytes under their content address
//
// A shard naming a recording the worker does not hold is answered
// trace_missing, and the coordinator pushes it. Shard execution is
// bounded by a semaphore independent of the pool's job queue, so a busy
// profiling daemon still answers shard traffic predictably (and vice
// versa). Every push is counted per content address;
// BenchmarkClusterSweep asserts each recording reaches a worker at most
// once.
type Worker struct {
	pool *service.Pool
	sem  chan struct{}
	// MaxTraceBytes caps PUT /v1/traces uploads; <= 0 means the 512 MiB
	// default. Set before Register.
	MaxTraceBytes int64

	mu        sync.Mutex
	shards    int64
	configs   int64
	pushes    map[string]int64 // trace key -> PUT (bytes received) count
	shardErrs int64
}

// shardReplayWorkers is the replay fan-out of one shard. A shard is one
// geometry group, which trace.Sweep serves with one decode and one
// model pass; a larger count would split the group and pay both once
// per part.
const shardReplayWorkers = 1

// NewWorker wraps a pool. A shard replays on one core, so up to
// GOMAXPROCS shards run at once.
func NewWorker(pool *service.Pool) *Worker {
	return &Worker{
		pool:   pool,
		sem:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		pushes: map[string]int64{},
	}
}

func (w *Worker) maxBytes() int64 {
	if w.MaxTraceBytes > 0 {
		return w.MaxTraceBytes
	}
	return maxTraceBody
}

// Handler returns the worker routes.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	w.Register(mux)
	return mux
}

// Register mounts the worker routes on an existing mux (jrpmd mounts
// them next to the service API).
func (w *Worker) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/shards", w.runShard)
	mux.HandleFunc("PUT /v1/traces/{hash}", w.putTrace)
}

func (w *Worker) putTrace(rw http.ResponseWriter, r *http.Request) {
	key := r.PathValue("hash")
	// Reject oversized uploads before reading a byte when the sender
	// declares a length; MaxBytesReader still guards chunked senders.
	if r.ContentLength > w.maxBytes() {
		httpjson.Error(rw, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("trace body %d bytes exceeds the %d byte cap", r.ContentLength, w.maxBytes()), "")
		return
	}
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		buf.Grow(int(r.ContentLength))
	}
	if _, err := io.Copy(&buf, http.MaxBytesReader(rw, r.Body, w.maxBytes())); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpjson.Error(rw, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("trace body exceeds the %d byte cap", w.maxBytes()), "")
			return
		}
		httpjson.Error(rw, http.StatusBadRequest, "read body: "+err.Error(), "")
		return
	}
	data := buf.Bytes()
	if got := service.TraceKeyOf(data); got != key {
		httpjson.Error(rw, http.StatusBadRequest, fmt.Sprintf("content address mismatch: body hashes to %s", got), "")
		return
	}
	// Reject bytes that do not even parse as a trace header; a corrupt
	// recording would otherwise poison every shard dispatched against it.
	if _, err := trace.NewBytesReader(data); err != nil {
		httpjson.Error(rw, http.StatusUnprocessableEntity, "not a trace: "+err.Error(), "")
		return
	}
	w.mu.Lock()
	w.pushes[key]++
	w.mu.Unlock()
	w.pool.Traces().Put(&service.TraceArtifact{Key: key, Data: data})
	rw.WriteHeader(http.StatusNoContent)
}

func (w *Worker) runShard(rw http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxTraceBody))
	if err := dec.Decode(&req); err != nil {
		httpjson.Error(rw, http.StatusBadRequest, "bad shard request: "+err.Error(), "")
		return
	}
	if len(req.Configs) == 0 {
		httpjson.Error(rw, http.StatusBadRequest, "shard has no configs", "")
		return
	}
	// Coordinators cut shards from grids POST /v1/sweeps has checked,
	// but this endpoint faces the network too: bound the store tables
	// the replay would allocate.
	if err := core.CheckGrid(req.Configs); err != nil {
		httpjson.Error(rw, http.StatusBadRequest, "bad shard request: "+err.Error(), "")
		return
	}
	// When jrpmd wraps the worker routes in telemetry.Middleware, the
	// request context carries the coordinator's trace; the replay span
	// measures semaphore wait plus the sweep itself. Without a tracer
	// this is the zero-cost disabled path.
	ctx, sp := telemetry.StartSpan(r.Context(), "shard.replay")
	defer sp.End()
	sp.SetAttr("trace.key", req.TraceKey)
	sp.SetInt("shard.configs", int64(len(req.Configs)))
	// Answer trace_missing before taking a replay slot: the coordinator
	// pushes and dispatches again, and must not queue behind replays to
	// learn that.
	art, ok := w.pool.Traces().Get(req.TraceKey)
	if !ok {
		sp.SetAttr("error", "trace_missing")
		httpjson.Error(rw, http.StatusNotFound, "no cached trace "+req.TraceKey, "trace_missing")
		return
	}
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		return
	}

	// Compilation is deterministic, so every worker's artifact cache
	// converges on the same program.
	compiled, _, err := w.pool.Compile(req.Source, jrpm.Options{Annot: req.Annot, Optimize: req.Optimize})
	if err != nil {
		sp.Fail(err)
		// The coordinator fails the whole sweep with this message, as a
		// local sweep fails on a source that does not compile.
		w.fail(rw, http.StatusUnprocessableEntity, err.Error(), codeCompile)
		return
	}
	tr, err := trace.NewBytesReader(art.Data)
	if err != nil {
		sp.Fail(err)
		w.fail(rw, http.StatusUnprocessableEntity, "trace header: "+err.Error(), "")
		return
	}
	if tr.Header().ProgramHash != compiled.TraceHash() {
		sp.SetAttr("error", "hash_mismatch")
		w.fail(rw, http.StatusConflict, trace.ErrHashMismatch.Error(), "") // a local sweep's row error
		return
	}

	opts := jrpm.Options{Annot: req.Annot, Tracer: req.Tracer, Select: req.Select, Optimize: req.Optimize}
	outs := compiled.SweepTrace(ctx, art.Data, req.Configs, opts, shardReplayWorkers)
	for _, o := range outs {
		// A cancellation mid-replay is an infrastructure failure, not an
		// analysis result: the coordinator must re-dispatch, not merge it.
		if o.Err != nil && (errors.Is(o.Err, context.Canceled) || errors.Is(o.Err, context.DeadlineExceeded)) {
			sp.Fail(o.Err)
			httpjson.Error(rw, http.StatusServiceUnavailable, "shard interrupted: "+o.Err.Error(), "")
			return
		}
	}

	w.mu.Lock()
	w.shards++
	w.configs += int64(len(req.Configs))
	w.mu.Unlock()
	httpjson.Reply(rw, http.StatusOK, ShardResponse{Outcomes: EncodeOutcomes(outs)})
}

// fail answers a shard request with a JSON error, and with code (a
// machine-readable cause) when it is not empty.
func (w *Worker) fail(rw http.ResponseWriter, status int, msg, code string) {
	w.mu.Lock()
	w.shardErrs++
	w.mu.Unlock()
	httpjson.Error(rw, status, msg, code)
}

// RegisterProm exposes the worker's long-lived shard and transfer
// counters on a metrics registry; jrpmd's worker mode passes the pool's
// registry so /metrics covers cluster traffic alongside the queue,
// cache and VM families.
func (w *Worker) RegisterProm(reg *telemetry.Registry) {
	locked := func(read func() int64) func() int64 {
		return func() int64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return read()
		}
	}
	reg.CounterFunc("jrpmd_cluster_shards_executed_total",
		"Shards replayed to completion by this worker.",
		locked(func() int64 { return w.shards }))
	reg.CounterFunc("jrpmd_cluster_configs_swept_total",
		"Machine configurations evaluated across all shards.",
		locked(func() int64 { return w.configs }))
	reg.CounterFunc("jrpmd_cluster_shard_errors_total",
		"Shard requests that failed (compile, trace header, hash mismatch).",
		locked(func() int64 { return w.shardErrs }))
	reg.CounterFunc("jrpmd_cluster_trace_pushes_total",
		"Trace recordings received from coordinators (bytes-in transfers).",
		locked(func() int64 {
			var n int64
			for _, c := range w.pushes {
				n += c
			}
			return n
		}))
}

// TraceTransfer is one content address's push count on a worker.
type TraceTransfer struct {
	Key    string `json:"key"`
	Pushes int64  `json:"pushes"`
}

// WorkerSnapshot is the worker-side cluster section of GET /v1/metrics.
type WorkerSnapshot struct {
	ShardsExecuted int64           `json:"shards_executed"`
	ConfigsSwept   int64           `json:"configs_swept"`
	ShardErrors    int64           `json:"shard_errors"`
	TracePushes    int64           `json:"trace_pushes"`
	Traces         []TraceTransfer `json:"traces,omitempty"`
}

// Snapshot reports shard and push counters, traces sorted by key.
func (w *Worker) Snapshot() WorkerSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := WorkerSnapshot{
		ShardsExecuted: w.shards,
		ConfigsSwept:   w.configs,
		ShardErrors:    w.shardErrs,
	}
	keys := make([]string, 0, len(w.pushes))
	for k := range w.pushes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.TracePushes += w.pushes[k]
		s.Traces = append(s.Traces, TraceTransfer{Key: k, Pushes: w.pushes[k]})
	}
	return s
}
