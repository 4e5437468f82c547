package jrpm_test

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"jrpm"
	"jrpm/internal/corpus"
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
// collector ran. On a 2-vCPU x86-64 VM a job made 155 allocations
// of 0.19 MB (0.31 MB before BindInputs sized the heap once); before
// that scratch was reused, about 190 of 2.9 MB.
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

// TestProfileRecordAllocsPerJob gates what one cold record job — a
// jrpm.Compile and a Compiled.ProfileRecord into a bytes.Buffer, the
// daemon's ingest path — allocates for a fixed default-corpus program
// once the job's scratch is warm: the token slice, the program-hash
// buffer, the VM's event batch and the trace writer's staging buffer
// come from their free lists. Garbage collection is off while it
// measures, as in TestRunAllocsPerJob. On a 2-vCPU x86-64 VM a job made
// 497 allocations of 0.11 MB; before that scratch was reused, 680 of
// 0.22 MB.
func TestProfileRecordAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const maxAllocs, maxBytes = 540, 136 << 10
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	p := progs[wireCorpusPin.index]
	in := p.Input()
	opts := jrpm.DefaultOptions()
	job := func() {
		c, err := jrpm.Compile(p.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := c.ProfileRecord(context.Background(), in, opts, &buf); err != nil {
			t.Fatal(err)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	job() // fill the free lists with the job's scratch
	allocs := testing.AllocsPerRun(10, job)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	perJob := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Compile + ProfileRecord (corpus program %d): %.0f allocations, %d bytes per job", wireCorpusPin.index, allocs, perJob)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per job, want at most %d", allocs, maxAllocs)
	}
	if perJob > maxBytes {
		t.Errorf("%d bytes allocated per job, want at most %d", perJob, maxBytes)
	}
}

// TestCompiledHeapBytes holds jrpm.Compiled.HeapBytes, by which the
// daemon's trace cache charges the program a recording pins, to within
// 2× of the heap the default corpus's compiled programs really hold.
// Compile also puts each annotated program in vmsim's bounded decode
// cache, which pins the most recent 128; filling that cache first keeps
// the measurement to the artifacts, give or take the warm-up programs
// it still pins at the end, 128 of the 500 annotated programs at most.
func TestCompiledHeapBytes(t *testing.T) {
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	compile := func(src string) *jrpm.Compiled {
		c, err := jrpm.Compile(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, p := range progs[:128] {
		compile(p.Source)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := make([]*jrpm.Compiled, len(progs))
	var estimate int64
	for i, p := range progs {
		kept[i] = compile(p.Source)
		estimate += kept[i].HeapBytes()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	n := int64(len(kept))
	measured := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	estimate /= n
	t.Logf("compiled default-corpus program: HeapBytes %d, measured %d bytes", estimate, measured)
	if estimate > 2*measured || measured > 2*estimate {
		t.Errorf("HeapBytes %d is not within 2× of the measured %d bytes", estimate, measured)
	}
}
