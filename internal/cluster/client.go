package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"jrpm/internal/httpjson"
	"jrpm/internal/telemetry"
)

// errTraceMissing marks a shard rejection because the worker does not
// hold the recording (never pushed, or evicted from its LRU cache); the
// dispatcher pushes it and dispatches once more within the same attempt.
var errTraceMissing = errors.New("cluster: worker does not hold the trace")

// maxResidency bounds the per-worker trace-residency memo. Against a
// churning fleet the coordinator outlives many worker generations; the
// memo only steers placement, so an LRU bound keeps it from growing
// without limit while a false eviction costs at most a worse placement.
const maxResidency = 4096

// workerClient is the coordinator's HTTP face of one worker.
type workerClient struct {
	name string // member ID (display + metrics key)
	base string // http://host:port

	mu       sync.Mutex
	hasTrace map[string]bool // content addresses the worker was last seen holding
	order    []string        // LRU order, oldest first
}

func newWorkerClient(name, base string) *workerClient {
	return &workerClient{name: name, base: base, hasTrace: map[string]bool{}}
}

// markResident records key in the bounded residency memo.
func (wc *workerClient) markResident(key string) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.hasTrace[key] {
		return
	}
	wc.hasTrace[key] = true
	wc.order = append(wc.order, key)
	for len(wc.order) > maxResidency {
		delete(wc.hasTrace, wc.order[0])
		wc.order = wc.order[1:]
	}
}

// resident reports whether key is memoized as worker-resident.
func (wc *workerClient) resident(key string) bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.hasTrace[key]
}

// rejectError is a worker's refusal of a shard (400 malformed, 409
// hash mismatch, 422 compile or trace header): a deterministic answer
// that every worker would repeat, so a shard answered with one is not
// retried.
type rejectError struct {
	status int
	msg    string
	code   string
}

// codeCompile marks a shard rejected because its source does not
// compile: every shard of the trace would be, so the sweep fails.
const codeCompile = "compile"

func (e *rejectError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.msg) }

// classify maps a worker's error answer to errTraceMissing or a
// *rejectError. Any other error, an intermediary's or a mux's 4xx among
// them, is returned as it is and retried.
func classify(err error) error {
	var se *httpjson.StatusError
	if !errors.As(err, &se) {
		return err
	}
	switch s := se.Status; {
	case se.Code == "trace_missing":
		return errTraceMissing
	case s == http.StatusBadRequest || s == http.StatusConflict || s == http.StatusUnprocessableEntity:
		return &rejectError{s, se.Msg, se.Code}
	}
	return err
}

// version fetches GET /v1/version.
func (wc *workerClient) version(ctx context.Context) (VersionInfo, error) {
	var vi VersionInfo
	_, err := httpjson.Do(ctx, http.DefaultClient, http.MethodGet, wc.base+"/v1/version", nil, nil, &vi)
	return vi, classify(err)
}

// errDraining is a worker's 503 from GET /v1/readyz: it is draining
// and must not receive shards.
var errDraining = errors.New("worker draining")

// ready probes GET /v1/readyz. Workers predating the endpoint answer
// 404 and are treated as ready (the version probe already vetted them).
func (wc *workerClient) ready(ctx context.Context) error {
	_, err := httpjson.Do(ctx, http.DefaultClient, http.MethodGet, wc.base+"/v1/readyz", nil, nil, nil)
	var se *httpjson.StatusError
	switch {
	case !errors.As(err, &se):
		return err
	case se.Status == http.StatusNotFound:
		return nil
	case se.Status == http.StatusServiceUnavailable:
		return errDraining
	default:
		return fmt.Errorf("readyz: HTTP %d", se.Status)
	}
}

// forget drops the resident marker for a trace (after a trace_missing
// rejection). The stale LRU slot ages out on its own.
func (wc *workerClient) forget(key string) {
	wc.mu.Lock()
	delete(wc.hasTrace, key)
	wc.mu.Unlock()
}

// push stores the recording on the worker under its content address
// and marks it resident.
func (wc *workerClient) push(ctx context.Context, key string, data []byte) (err error) {
	ctx, sp := telemetry.StartSpan(ctx, "trace.push")
	sp.SetAttr("worker", wc.name)
	sp.SetAttr("trace.key", key)
	sp.SetInt("trace.bytes", int64(len(data)))
	defer func() { sp.Fail(err); sp.End() }()
	_, err = httpjson.Do(ctx, http.DefaultClient, http.MethodPut, wc.base+"/v1/traces/"+key, nil,
		httpjson.Raw{Type: "application/octet-stream", Data: data}, nil)
	var se *httpjson.StatusError
	if errors.As(err, &se) {
		// Not classified: only a shard's own answer is a deterministic
		// rejection; a refused push stays a retryable fault.
		return fmt.Errorf("trace push: %w", err)
	}
	if err != nil {
		return err
	}
	wc.markResident(key)
	return nil
}

// runShard executes POST /v1/shards.
func (wc *workerClient) runShard(ctx context.Context, sr ShardRequest) ([]OutcomeRow, error) {
	var out ShardResponse
	if _, err := httpjson.Do(ctx, http.DefaultClient, http.MethodPost, wc.base+"/v1/shards", nil, sr, &out); err != nil {
		return nil, classify(err)
	}
	if len(out.Outcomes) != len(sr.Configs) {
		return nil, fmt.Errorf("shard returned %d outcomes for %d configs", len(out.Outcomes), len(sr.Configs))
	}
	return out.Outcomes, nil
}
