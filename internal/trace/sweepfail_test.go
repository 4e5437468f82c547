// Failure-path coverage for trace.Sweep: truncated and corrupted
// recordings, a pathological configuration, and cancellation must each
// fail cleanly — an error in the outcome, never a panic, and never
// poisoning the other configurations of the same sweep.
package trace_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"jrpm"
	"jrpm/internal/hydra"
	"jrpm/internal/trace"
	"jrpm/internal/workloads"
)

// recordWorkload compiles a workload and captures one recording.
func recordWorkload(t *testing.T, name string) (*jrpm.Compiled, []byte) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return recordSource(t, w.Source, w.NewInput(0.2))
}

// recordSource compiles src and captures one recording of its run on in.
func recordSource(t *testing.T, src string, in jrpm.Input) (*jrpm.Compiled, []byte) {
	t.Helper()
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.ProfileRecord(context.Background(), in, opts, &buf); err != nil {
		t.Fatal(err)
	}
	return c, buf.Bytes()
}

func defaultJobs(n int) []trace.SweepJob {
	opts := jrpm.DefaultOptions()
	jobs := make([]trace.SweepJob, n)
	for i := range jobs {
		cfg := hydra.DefaultConfig()
		cfg.Tracer.Banks = 1 << i
		jobs[i] = trace.SweepJob{Cfg: cfg, Tracer: opts.Tracer, Select: opts.Select}
	}
	return jobs
}

func TestSweepTruncatedRecording(t *testing.T) {
	c, data := recordWorkload(t, "Huffman")
	truncated := data[:len(data)/2]
	outs := trace.Sweep(context.Background(), c.Annotated, truncated, defaultJobs(3), 2)
	for i, o := range outs {
		if o.Err == nil {
			t.Errorf("config %d: truncated recording replayed without error", i)
		}
		if o.Analysis != nil {
			t.Errorf("config %d: truncated recording produced an analysis", i)
		}
	}
}

func TestSweepCorruptedRecording(t *testing.T) {
	c, data := recordWorkload(t, "Huffman")

	t.Run("header", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] ^= 0xff // magic
		for i, o := range trace.Sweep(context.Background(), c.Annotated, bad, defaultJobs(2), 0) {
			if o.Err == nil {
				t.Errorf("config %d: corrupt header accepted", i)
			}
		}
	})

	t.Run("hash", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[12] ^= 0x01 // inside the program hash
		for i, o := range trace.Sweep(context.Background(), c.Annotated, bad, defaultJobs(2), 0) {
			if !errors.Is(o.Err, trace.ErrHashMismatch) {
				t.Errorf("config %d: err = %v, want ErrHashMismatch", i, o.Err)
			}
		}
	})

	t.Run("stream", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		for i := len(bad) * 3 / 4; i < len(bad)*3/4+64 && i < len(bad); i++ {
			bad[i] ^= 0xa5 // scramble mid-stream records
		}
		for i, o := range trace.Sweep(context.Background(), c.Annotated, bad, defaultJobs(2), 0) {
			if o.Err == nil {
				t.Errorf("config %d: scrambled stream replayed without error", i)
			}
		}
	})
}

// TestSweepBadConfigIsolation: a configuration that blows up tracer
// construction (negative timestamp-cache size) must fail alone; its
// neighbors' analyses must be identical to a sweep that never contained
// the bad config.
func TestSweepBadConfigIsolation(t *testing.T) {
	c, data := recordWorkload(t, "Huffman")
	jobs := defaultJobs(3)
	bad := jobs[1]
	bad.Cfg.Tracer.LoadLineTS = -1
	mixed := []trace.SweepJob{jobs[0], bad, jobs[2]}

	outs := trace.Sweep(context.Background(), c.Annotated, data, mixed, 2)
	if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "panicked") {
		t.Fatalf("bad config err = %v, want recovered panic", outs[1].Err)
	}
	clean := trace.Sweep(context.Background(), c.Annotated, data, []trace.SweepJob{jobs[0], jobs[2]}, 2)
	for i, ci := range []int{0, 2} {
		if outs[ci].Err != nil {
			t.Fatalf("good config %d: %v", ci, outs[ci].Err)
		}
		if !reflect.DeepEqual(outs[ci].Tracer.Results(), clean[i].Tracer.Results()) {
			t.Errorf("good config %d: tracer table perturbed by bad neighbor", ci)
		}
		if got, want := outs[ci].Analysis.PredictedSpeedup(), clean[i].Analysis.PredictedSpeedup(); got != want {
			t.Errorf("good config %d: predicted speedup %v != %v", ci, got, want)
		}
	}
}

// TestSweepCancellation: a canceled context abandons jobs not yet
// started; every outcome is either a complete analysis or a clean
// cancellation error, never a half-built result.
func TestSweepCancellation(t *testing.T) {
	c, data := recordWorkload(t, "Huffman")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	outs := trace.Sweep(ctx, c.Annotated, data, defaultJobs(6), 1)
	canceled := 0
	for i, o := range outs {
		switch {
		case o.Err == nil:
			if o.Analysis == nil || o.Tracer == nil {
				t.Errorf("config %d: no error but incomplete outcome", i)
			}
		case errors.Is(o.Err, context.Canceled):
			canceled++
			if o.Analysis != nil || o.Tracer != nil {
				t.Errorf("config %d: canceled outcome carries partial results", i)
			}
		default:
			t.Errorf("config %d: unexpected error %v", i, o.Err)
		}
	}
	if canceled == 0 {
		t.Error("pre-canceled context canceled no jobs")
	}
}

// TestSweepDecodesOncePerWorker: each worker goroutine decodes the
// recording once, however many configurations it analyzes, and every
// configuration's lockstep result equals a replay of that configuration
// alone.
func TestSweepDecodesOncePerWorker(t *testing.T) {
	c, data := recordWorkload(t, "Huffman")
	jobs := defaultJobs(5)
	for _, workers := range []int{1, 2, 5} {
		var opens atomic.Int64
		open := func(b []byte) (*trace.Reader, error) {
			opens.Add(1)
			return trace.NewBytesReader(b)
		}
		outs := trace.SweepWith(context.Background(), c.Annotated, data, jobs, workers, open)
		if n := opens.Load(); n != int64(workers) {
			t.Errorf("workers=%d: recording decoded %d times, want once per worker", workers, n)
		}
		for i, o := range outs {
			if o.Err != nil {
				t.Fatalf("workers=%d config %d: %v", workers, i, o.Err)
			}
			opts := jrpm.DefaultOptions()
			opts.Cfg = jobs[i].Cfg
			alone, err := c.ReplayProfile(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(o.Tracer.Results(), alone.Tracer.Results()) ||
				!reflect.DeepEqual(o.Tracer.ParentEdges(), alone.Tracer.ParentEdges()) {
				t.Errorf("workers=%d config %d: lockstep tracer differs from a lone replay", workers, i)
			}
			if got, want := o.Analysis.PredictedSpeedup(), alone.Analysis.PredictedSpeedup(); got != want {
				t.Errorf("workers=%d config %d: predicted speedup %v, lone replay %v", workers, i, got, want)
			}
		}
	}
}

// TestSweepMidStreamPanicIsolation: a configuration whose model panics
// mid-replay (a zero-entry load timestamp cache divides by zero at the
// first heap load) fails alone while its lockstep neighbors, fed the
// same event batches, finish unperturbed.
func TestSweepMidStreamPanicIsolation(t *testing.T) {
	c, data := recordWorkload(t, "Huffman")
	jobs := defaultJobs(3)
	bad := jobs[1]
	bad.Cfg.Tracer.LoadLineTS = 0
	outs := trace.Sweep(context.Background(), c.Annotated, data, []trace.SweepJob{jobs[0], bad, jobs[2]}, 1)
	if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "panicked") || outs[1].Tracer != nil {
		t.Fatalf("bad config: err = %v, tracer = %v; want a recovered panic and no tracer", outs[1].Err, outs[1].Tracer)
	}
	clean := trace.Sweep(context.Background(), c.Annotated, data, []trace.SweepJob{jobs[0], jobs[2]}, 1)
	for i, ci := range []int{0, 2} {
		if outs[ci].Err != nil {
			t.Fatalf("good config %d: %v", ci, outs[ci].Err)
		}
		if !reflect.DeepEqual(outs[ci].Tracer.Results(), clean[i].Tracer.Results()) {
			t.Errorf("good config %d: tracer table perturbed by a panicking neighbor", ci)
		}
	}
}
