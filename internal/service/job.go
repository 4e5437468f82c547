package service

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"jrpm"
	"jrpm/internal/hydra"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// Request is the body of POST /v1/jobs. It describes one of two job
// kinds:
//
//   - a pipeline job: a JR program (inline source or a built-in workload
//     name), its input arrays, and pipeline knobs — optionally recording
//     the traced run's event stream into the daemon's trace cache;
//   - a trace-analysis job (AnalyzeTrace set): replay a cached trace
//     under one or more machine configurations, with zero VM executions.
type Request struct {
	// Exactly one of Source / Workload must be set. Workload names a
	// built-in benchmark whose deterministic inputs are generated
	// server-side at Scale (default 1.0, at most MaxScale); Source
	// carries inline JR text bound to Ints/Floats.
	Source   string  `json:"source,omitempty"`
	Workload string  `json:"workload,omitempty"`
	Scale    float64 `json:"scale,omitempty"`

	Ints   map[string][]int64   `json:"ints,omitempty"`
	Floats map[string][]float64 `json:"floats,omitempty"`

	// Optimize enables the microJIT scalar optimizer (a compile-stage
	// option: it participates in the cache key).
	Optimize bool `json:"optimize,omitempty"`
	// Speculate runs steps 4-5 (recompilation + TLS timing simulation)
	// after profiling.
	Speculate bool `json:"speculate,omitempty"`
	// TimeoutMs bounds the job's run time; 0 uses the pool default. The
	// pool's MaxTimeout caps it either way.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// DeadlineMs bounds the job's whole life from submission, queue wait
	// included: a job whose deadline passes while queued is failed
	// without running, and a running job is interrupted at the deadline.
	// 0 means no request-level deadline (the timeout still applies).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`

	// Tenant is the quota/fairness lane this job is charged to. It is
	// not part of the JSON body: the HTTP layer fills it from the
	// X-JRPM-Tenant request header (empty = DefaultTenant), and
	// in-process callers set it directly.
	Tenant string `json:"-"`

	// Record also captures the traced run's event stream (internal/trace)
	// and stores it in the daemon's content-addressed trace cache; the
	// result carries the trace key for later analyze_trace jobs.
	Record bool `json:"record,omitempty"`

	// SamplePeriod, when > 0, attaches the VM sampling profiler to the
	// traced run (one sample per SamplePeriod steps, rounded up to the
	// interpreter's poll window); the result carries the hot-loop
	// profile. A run-stage option: it does not affect the cache key.
	SamplePeriod int64 `json:"sample_period,omitempty"`

	// AnalyzeTrace selects the trace-analysis job kind: the key of a
	// cached trace to replay. Mutually exclusive with Source/Workload,
	// Record and Speculate.
	AnalyzeTrace string `json:"analyze_trace,omitempty"`
	// Configs lists the machine variations an analyze_trace job evaluates
	// (concurrently, from the single recording); empty means one analysis
	// under the default Hydra configuration.
	Configs []TraceConfig `json:"configs,omitempty"`
}

// TraceConfig is one machine variation for an analyze_trace job. Each
// field overrides the corresponding default Hydra parameter when > 0.
type TraceConfig struct {
	Banks          int `json:"banks,omitempty"`            // comparator banks (§5.2)
	HeapStoreLines int `json:"heap_store_lines,omitempty"` // store-timestamp FIFO depth (§5.3)
	LoadLines      int `json:"load_lines,omitempty"`       // speculative load buffer lines (Table 1)
	StoreLines     int `json:"store_lines,omitempty"`      // speculative store buffer lines (Table 1)
}

func (tc TraceConfig) apply(cfg hydra.Config) hydra.Config {
	if tc.Banks > 0 {
		cfg.Tracer.Banks = tc.Banks
	}
	if tc.HeapStoreLines > 0 {
		cfg.Tracer.HeapStoreLines = tc.HeapStoreLines
	}
	if tc.LoadLines > 0 {
		cfg.Buffers.LoadLines = tc.LoadLines
	}
	if tc.StoreLines > 0 {
		cfg.Buffers.StoreLines = tc.StoreLines
	}
	return cfg
}

// MinSamplePeriod is the smallest accepted sample_period, in VM steps.
// The sampler rounds periods up to the interpreter's poll window anyway,
// and a tiny period asks for a profile with more samples than work —
// pure overhead, almost certainly a units mistake on the client's side.
const MinSamplePeriod = 256

// validateSamplePeriod screens sample_period for job and session
// submissions; failures map to HTTP 400.
func validateSamplePeriod(p int64) error {
	if p < 0 {
		return fmt.Errorf("sample_period must not be negative (got %d)", p)
	}
	if p > 0 && p < MinSamplePeriod {
		return fmt.Errorf("sample_period %d is too small: use >= %d VM steps, or 0 to disable sampling", p, MinSamplePeriod)
	}
	return nil
}

// validate fail-fast checks a request at submit time, for either job
// kind.
func (r *Request) validate() error {
	if err := validateSamplePeriod(r.SamplePeriod); err != nil {
		return err
	}
	if r.DeadlineMs < 0 || r.TimeoutMs < 0 {
		return fmt.Errorf("deadline_ms and timeout_ms must not be negative")
	}
	if r.AnalyzeTrace != "" {
		if r.Source != "" || r.Workload != "" {
			return fmt.Errorf("analyze_trace jobs take no source or workload")
		}
		if r.Record || r.Speculate {
			return fmt.Errorf("analyze_trace jobs cannot record or speculate")
		}
		return nil
	}
	if len(r.Configs) > 0 {
		return fmt.Errorf("configs requires analyze_trace")
	}
	_, _, err := r.program()
	return err
}

// MaxScale bounds Request.Scale. A workload's inputs grow with the
// scale, some quadratically; at MaxScale the largest takes about 57 MB.
const MaxScale = 16

// program checks the request's program fields (the scale's range,
// exactly one of source and workload, a known workload name) and returns
// the source with the named workload, if any. It builds no input, so
// the submit handler validates a request in constant memory.
func (r *Request) program() (src string, w *workloads.Workload, err error) {
	if math.IsNaN(r.Scale) || r.Scale < 0 || r.Scale > MaxScale {
		return "", nil, fmt.Errorf("scale %v outside [0, %d]", r.Scale, MaxScale)
	}
	switch {
	case r.Source != "" && r.Workload != "":
		return "", nil, fmt.Errorf("set either source or workload, not both")
	case r.Source != "":
		return r.Source, nil, nil
	case r.Workload != "":
		w, err := workloads.ByName(r.Workload)
		if err != nil {
			return "", nil, err
		}
		return w.Source, w, nil
	default:
		return "", nil, fmt.Errorf("empty job: set source or workload")
	}
}

// inputScale is the scale a workload's input is built at: the
// request's scale, or 1 when unset.
func inputScale(scale float64) float64 {
	if scale <= 0 {
		return 1
	}
	return scale
}

// resolve turns a request into runnable source and inputs: a workload's
// input comes from the pool's memo, an inline source's from the request.
func (p *Pool) resolve(r *Request) (src string, in jrpm.Input, err error) {
	src, w, err := r.program()
	if err != nil {
		return "", in, err
	}
	if w == nil {
		return src, jrpm.Input{Ints: r.Ints, Floats: r.Floats}, nil
	}
	return src, p.inputs.get(w, inputScale(r.Scale)), nil
}

func (r *Request) options() jrpm.Options {
	return jrpm.Normalize(jrpm.Options{Optimize: r.Optimize, SamplePeriod: r.SamplePeriod})
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether no further transitions can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// LoopResult is one loop's profile (and, when speculated, simulation)
// outcome in a job result.
type LoopResult struct {
	Loop       int     `json:"loop"`
	Name       string  `json:"name"`
	Depth      int     `json:"depth"`
	Coverage   float64 `json:"coverage"`
	EstSpeedup float64 `json:"est_speedup"`
	Selected   bool    `json:"selected"`
	// TLS simulation fields, present when the job speculated and
	// Equation 2 selected this loop.
	ActualSpeedup  float64 `json:"actual_speedup,omitempty"`
	Threads        int64   `json:"threads,omitempty"`
	Violations     int64   `json:"violations,omitempty"`
	CommStalls     int64   `json:"comm_stalls,omitempty"`
	OverflowStalls int64   `json:"overflow_stalls,omitempty"`
}

// Result is the payload of a completed job.
type Result struct {
	CleanCycles      int64        `json:"clean_cycles"`
	TracedCycles     int64        `json:"traced_cycles"`
	Slowdown         float64      `json:"slowdown"`
	AnnotationCount  int          `json:"annotation_count"`
	Loops            []LoopResult `json:"loops"`
	SelectedLoops    []int        `json:"selected_loops"`
	PredictedSpeedup float64      `json:"predicted_speedup"`
	// ActualSpeedup is the TLS-simulated whole-program speedup; only set
	// when the job speculated.
	ActualSpeedup float64 `json:"actual_speedup,omitempty"`
	CacheHit      bool    `json:"cache_hit"`

	// TraceKey and TraceBytes are set when the job recorded a trace (the
	// content address it was cached under) or analyzed one.
	TraceKey   string `json:"trace_key,omitempty"`
	TraceBytes int64  `json:"trace_bytes,omitempty"`
	// Samples is the VM sampling-profiler output, present when the job
	// set sample_period.
	Samples *vmsim.SampleProfile `json:"samples,omitempty"`
	// Sweep holds the per-configuration outcomes of an analyze_trace job.
	Sweep []SweepRow `json:"sweep,omitempty"`
}

// SweepRow is one configuration's outcome within an analyze_trace job.
type SweepRow struct {
	Banks            int     `json:"banks"`
	HeapStoreLines   int     `json:"heap_store_lines"`
	LoadLines        int     `json:"load_lines"`
	StoreLines       int     `json:"store_lines"`
	SelectedLoops    []int   `json:"selected_loops"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
}

// Job is one queued unit of pipeline work. All mutable state is behind
// mu; Done is closed exactly once on reaching a terminal state.
type Job struct {
	ID     string
	Req    Request
	Tenant string // quota/fairness lane (defaulted copy of Req.Tenant)

	mu        sync.Mutex
	state     State
	result    *Result
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc

	// traceparent is the submitting request's span context (W3C header
	// form, "" when the submitter was untraced); the worker re-attaches
	// it so the job's execution span joins the submitter's trace.
	traceparent string

	done chan struct{}
}

// JobView is the JSON form of a job for GET /v1/jobs/{id}.
type JobView struct {
	ID          string  `json:"id"`
	State       State   `json:"state"`
	Tenant      string  `json:"tenant,omitempty"`
	Error       string  `json:"error,omitempty"`
	Result      *Result `json:"result,omitempty"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	RunMs       float64 `json:"run_ms"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.ID, State: j.state, Tenant: j.Tenant, Error: j.errMsg, Result: j.result}
	if !j.started.IsZero() {
		v.QueueWaitMs = float64(j.started.Sub(j.submitted).Microseconds()) / 1e3
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.RunMs = float64(end.Sub(j.started).Microseconds()) / 1e3
	}
	return v
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx expires, returning the final
// view (or ctx's error).
func (j *Job) Wait(ctx context.Context) (JobView, error) {
	select {
	case <-j.done:
		return j.View(), nil
	case <-ctx.Done():
		return j.View(), ctx.Err()
	}
}

// start moves queued -> running, returning the time the job spent
// queued; it fails if the job was canceled while waiting in the queue.
func (j *Job) start(cancel context.CancelFunc) (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return 0, false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return j.started.Sub(j.submitted), true
}

func (j *Job) finish(state State, res *Result, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	close(j.done)
}

// CancelOutcome says what Job.Cancel did: nothing (terminal already —
// the HTTP layer turns that into 409), marked a queued job canceled on
// the spot, or requested cancellation of a running job (the worker
// records the terminal state).
type CancelOutcome int

const (
	CancelNoop CancelOutcome = iota
	CancelQueued
	CancelRequested
)

// Cancel aborts the job: a queued job is marked canceled immediately, a
// running one has its context canceled (the VM interrupts at its next
// check point).
func (j *Job) Cancel() CancelOutcome {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return CancelNoop
	}
	if j.state == StateQueued {
		j.state = StateCanceled
		j.errMsg = "canceled while queued"
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		return CancelQueued
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return CancelRequested
}

// failIfQueued marks a still-queued job failed with msg (the drain and
// queued-deadline-expiry paths); a job already canceled or started is
// left alone. On the transition it calls account before waking the
// job's waiters, so whatever account records is visible to them;
// account runs under j.mu and must not take a job lock.
func (j *Job) failIfQueued(msg string, account func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	j.state = StateFailed
	j.errMsg = msg
	j.finished = time.Now()
	account()
	close(j.done)
}
