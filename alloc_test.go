package jrpm_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"jrpm"
	"jrpm/internal/workloads"
)

// raceEnabled is set by race_test.go in -race builds, where sync.Pool
// drops a quarter of its Puts at random and allocation counts wander.
var raceEnabled bool

// TestRunAllocsPerJob gates what one Compiled.Run of Huffman at scale 1
// allocates once the job's scratch is warm: frames on the VM's one
// stack, the recorder and simulator scratch from their free lists and
// event-log chunks from their pool. Garbage collection is off while it
// measures: a collection can empty the event-log pool, and the chunks
// the next job then allocates would make the count depend on when the
// collector ran. On a 2-vCPU x86-64 VM a job made 158 allocations
// of 0.31 MB; before that scratch was reused, about 190 of 2.9 MB.
func TestRunAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const maxAllocs, maxBytes = 175, 1 << 20
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	in := w.NewInput(1)
	run := func() {
		if _, err := c.Run(context.Background(), in, opts); err != nil {
			t.Fatal(err)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // fill the pool and the free lists with the job's scratch
	allocs := testing.AllocsPerRun(10, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Compiled.Run(Huffman, scale 1): %.0f allocations, %d bytes per job", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per job, want at most %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%d bytes allocated per job, want at most %d", bytes, maxBytes)
	}
}
