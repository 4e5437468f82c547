package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

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

// apiError decodes a worker's JSON error body.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// rejectError is a worker's own JSON 4xx answer (other than
// trace_missing, 408 and 429): a deterministic refusal that every
// worker would repeat, so a shard answered with one is not retried.
type rejectError struct {
	status int
	msg    string
	code   string
}

// codeCompile marks a shard rejected because its source does not
// compile: every shard of the trace would be, so the sweep fails.
const codeCompile = "compile"

func (e *rejectError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.msg) }

func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var ae apiError
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		code := resp.StatusCode
		switch {
		case ae.Code == "trace_missing":
			return errTraceMissing
		case code >= 400 && code < 500 && code != http.StatusRequestTimeout && code != http.StatusTooManyRequests:
			return &rejectError{code, ae.Error, ae.Code}
		}
		return fmt.Errorf("HTTP %d: %s", code, ae.Error)
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// version fetches GET /v1/version.
func (wc *workerClient) version(ctx context.Context) (VersionInfo, error) {
	var vi VersionInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wc.base+"/v1/version", nil)
	if err != nil {
		return vi, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return vi, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return vi, decodeError(resp)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&vi); err != nil {
		return vi, fmt.Errorf("bad version body: %w", err)
	}
	return vi, nil
}

// errDraining is a worker's 503 from GET /v1/readyz: it is draining
// and must not receive shards.
var errDraining = errors.New("worker draining")

// ready probes GET /v1/readyz. Workers predating the endpoint answer
// 404 and are treated as ready (the version probe already vetted them).
func (wc *workerClient) ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wc.base+"/v1/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNotFound:
		return nil
	case http.StatusServiceUnavailable:
		return errDraining
	default:
		return fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
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
	put, err := http.NewRequestWithContext(ctx, http.MethodPut, wc.base+"/v1/traces/"+key, bytes.NewReader(data))
	if err != nil {
		return err
	}
	put.Header.Set("Content-Type", "application/octet-stream")
	put.ContentLength = int64(len(data))
	telemetry.Inject(ctx, put.Header)
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		// %v, not %w: only a shard's own answer is a deterministic
		// rejection; a refused push stays a retryable fault.
		return fmt.Errorf("trace push: %v", decodeError(resp))
	}
	wc.markResident(key)
	return nil
}

// runShard executes POST /v1/shards.
func (wc *workerClient) runShard(ctx context.Context, sr ShardRequest) ([]OutcomeRow, error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wc.base+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	telemetry.Inject(ctx, req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("bad shard response: %w", err)
	}
	if len(out.Outcomes) != len(sr.Configs) {
		return nil, fmt.Errorf("shard returned %d outcomes for %d configs", len(out.Outcomes), len(sr.Configs))
	}
	return out.Outcomes, nil
}
