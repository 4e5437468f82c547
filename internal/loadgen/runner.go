package loadgen

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Result is one load run's full outcome.
type Result struct {
	Spec        string  `json:"spec"`
	Seed        uint64  `json:"seed"`
	Fingerprint string  `json:"schedule_fingerprint"`
	Requests    int     `json:"requests"`
	WallSeconds float64 `json:"wall_seconds"`
	// OfferedRPS is the schedule's rate; AchievedRPS counts successful
	// completions against the wall clock. A hardened daemon under
	// saturation keeps AchievedRPS near its capacity and sheds the rest
	// — the gap shows up in the shed error class, not in p99.
	OfferedRPS     float64 `json:"offered_rps"`
	AchievedRPS    float64 `json:"achieved_rps"`
	PeakInFlight   int64   `json:"peak_in_flight"`
	Report         Report  `json:"report"`
	PrepareSeconds float64 `json:"prepare_seconds"`
}

// Run executes the schedule open-loop against the daemon: every op
// launches at its scheduled offset whether or not earlier ops have
// finished, and each op's latency is measured from its *intended*
// launch instant — late launches (runner scheduling delay) and slow
// completions both land in the recorded latency, never silently in the
// generator.
func Run(ctx context.Context, sched *Schedule, daemon *Remote) (*Result, error) {
	prepStart := time.Now()
	traceKeys, err := daemon.Prepare(ctx, sched)
	if err != nil {
		return nil, err
	}
	prepSecs := time.Since(prepStart).Seconds()

	maxOut := int64(sched.Spec.MaxOutstanding)
	if maxOut <= 0 {
		maxOut = 4096
	}
	rec := NewRecorder()
	var wg sync.WaitGroup
	var inFlight, peak atomic.Int64
	var okDone atomic.Int64

	t0 := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for _, op := range sched.Ops {
		intended := t0.Add(op.Offset)
		if wait := time.Until(intended); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// The open-loop safety valve: never block the generator. An op
		// that would exceed the in-flight cap is counted as dropped.
		n := inFlight.Add(1)
		if n > maxOut {
			inFlight.Add(-1)
			rec.Record(op.Class, ErrDropped, 0)
			continue
		}
		if p := peak.Load(); n > p {
			peak.CompareAndSwap(p, n)
		}
		wg.Add(1)
		go func(op Op, intended time.Time) {
			defer wg.Done()
			defer inFlight.Add(-1)
			out := daemon.Do(ctx, sched, op, traceKeys[op.Kernel])
			lat := time.Since(intended)
			rec.Record(op.Class, out.Class, lat)
			if out.Class == ErrOK {
				okDone.Add(1)
			}
		}(op, intended)
	}
	wg.Wait()
	wall := time.Since(t0)

	res := &Result{
		Spec:           sched.Spec.Name,
		Seed:           sched.Spec.Seed,
		Fingerprint:    sched.Fingerprint(),
		Requests:       len(sched.Ops),
		WallSeconds:    wall.Seconds(),
		PeakInFlight:   peak.Load(),
		Report:         rec.Report(),
		PrepareSeconds: prepSecs,
	}
	if d := sched.Spec.Duration().Seconds(); d > 0 {
		res.OfferedRPS = float64(len(sched.Ops)) / d
	}
	if wall > 0 {
		res.AchievedRPS = float64(okDone.Load()) / wall.Seconds()
	}
	return res, nil
}

// BenchRows flattens the result into the committed BENCH_load.json
// shape: a flat name -> figures map in the same spirit as the other
// BENCH_*.json trajectory files, keyed "Load/<spec>/<class>".
func (r *Result) BenchRows() map[string]BenchRow {
	rows := map[string]BenchRow{}
	add := func(cr ClassReport) {
		key := fmt.Sprintf("Load/%s/%s", r.Spec, cr.Class)
		rows[key] = BenchRow{
			Requests: cr.Total,
			OK:       cr.OKCount,
			Shed:     cr.Errors[ErrShed],
			Deadline: cr.Errors[ErrDeadline],
			Errors:   cr.Errors[ErrInternal] + cr.Errors[ErrReject] + cr.Errors[ErrDropped],
			P50Ms:    cr.P50Ms,
			P90Ms:    cr.P90Ms,
			P99Ms:    cr.P99Ms,
			P999Ms:   cr.P999Ms,
			MeanMs:   cr.MeanMs,
			RPS:      r.AchievedRPS,
		}
	}
	for _, cr := range r.Report.Classes {
		add(cr)
	}
	add(r.Report.Overall)
	return rows
}

// BenchRow is one row of BENCH_load.json.
type BenchRow struct {
	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Shed     int64   `json:"shed"`
	Deadline int64   `json:"deadline"`
	Errors   int64   `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
	P999Ms   float64 `json:"p999_ms"`
	MeanMs   float64 `json:"mean_ms"`
	RPS      float64 `json:"rps"`
}
