package jrpm_test

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"jrpm"
	"jrpm/internal/corpus"
	"jrpm/internal/service"
	"jrpm/internal/workloads"
)

// raceEnabled is set by race_test.go in -race builds, where sync.Pool
// drops a quarter of its Puts at random and allocation counts wander.
var raceEnabled bool

// TestRunAllocsPerJob gates what one Compiled.Run of Huffman at scale 1
// allocates once the job's scratch is warm: frames on the VM's one
// stack, the VM's heap, the model's tables, the recorder and simulator
// scratch from their free lists, event-log chunks from their pool, and
// a plan projected from the scalar screen's classes. Garbage collection
// is off while it measures: a collection can empty the event-log pool,
// and the chunks the next job then allocates would make the count
// depend on when the collector ran. On a 2-vCPU x86-64 VM a job made
// 62 allocations of 5.4 KB; with a fresh heap, fresh tables and a plan
// re-analyzed per job, 155 of 0.19 MB; before any scratch was reused,
// about 190 of 2.9 MB.
func TestRunAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const maxAllocs, maxBytes = 80, 64 << 10
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
		if _, err := c.Run(context.Background(), in, opts, nil); err != nil {
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

// TestPoolSpeculateAllocsPerJob gates what one warm cache-hit speculate
// job through the service pool allocates, submit to result: the
// workload's input comes from the pool's memo, the recompilation plan
// is projected from the classes the scalar screen recorded at compile
// time, and the VM's heap and the model's tables come from their free
// lists. The budget is below what either kind of rebuilt work would
// add: building Huffman's input at scale 1 allocates about 440 KB, and
// re-analyzing its selected loops for the plan (cfg.Build, NaturalLoops,
// scalar.Analyze) about 70 allocations of 9 KB. Garbage collection is
// off while it measures, as in TestRunAllocsPerJob. On a 2-vCPU x86-64
// VM a job made 95 allocations of 8.5 KB; before the memo, the projected
// plans and the released VM heap and tables, 392 of 1.07 MB.
func TestPoolSpeculateAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const maxAllocs, maxBytes = 130, 14 << 10
	pool := service.NewPool(service.Config{Workers: 1})
	defer pool.Stop()
	req := service.Request{Workload: "Huffman", Scale: 1, Speculate: true}
	job := func() {
		j, err := pool.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		v, err := j.Wait(context.Background())
		if err != nil || v.State != service.StateDone {
			t.Fatalf("job %s: %v %s", v.State, err, v.Error)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	job() // compile, build the input, fill the free lists
	job()
	allocs := testing.AllocsPerRun(10, job)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	perJob := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("pool speculate job (Huffman, scale 1, cache hit): %.0f allocations, %d bytes per job", allocs, perJob)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per job, want at most %d", allocs, maxAllocs)
	}
	if perJob > maxBytes {
		t.Errorf("%d bytes allocated per job, want at most %d", perJob, maxBytes)
	}
}

// TestProfileRecordAllocsPerJob gates what one cold record job — a
// jrpm.Compile and a Compiled.ProfileRecord into a bytes.Buffer, the
// daemon's ingest path — allocates for a fixed default-corpus program
// once the job's scratch is warm: the token slice, the code generator's
// blocks, the scalar analyzer's files, the annotation plan, the
// program-hash buffer, the VM's event batch and the trace writer's
// staging buffer come from their free lists, and each compiled function
// is allocated once at its final size. Garbage collection is off while
// it measures, as in TestRunAllocsPerJob. On a 2-vCPU x86-64 VM a job
// made 373 allocations of 58 KB; while code generation grew each block
// by append and the analyzer and the plan were allocated afresh, 486 of
// 80 KB; before any scratch was reused, 680 of 0.22 MB.
func TestProfileRecordAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const maxAllocs, maxBytes = 410, 63 << 10
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

// TestCompileAllocsPerProgram gates what one jrpm.Compile of a fixed
// default-corpus program allocates once the front end's scratch is warm:
// the tokens, the code generator's blocks, the scalar analyzer's files
// and the annotation plan come from free lists, and each function of the
// clean program, its annotated clone and the trampolines are allocated
// once, at their final size. Garbage collection is off while it
// measures, as in TestRunAllocsPerJob. On a 2-vCPU x86-64 VM a compile
// made 327 allocations of 43 KB; while code generation grew each block
// by append and the analyzer and the plan were allocated afresh, 440 of
// 65 KB.
func TestCompileAllocsPerProgram(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const maxAllocs, maxBytes = 360, 47 << 10
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	src := progs[wireCorpusPin.index].Source
	opts := jrpm.DefaultOptions()
	compile := func() {
		if _, err := jrpm.Compile(src, opts); err != nil {
			t.Fatal(err)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	compile() // fill the free lists with the compile's scratch
	allocs := testing.AllocsPerRun(10, compile)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&after)
	perProgram := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Compile (corpus program %d): %.0f allocations, %d bytes per program", wireCorpusPin.index, allocs, perProgram)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per program, want at most %d", allocs, maxAllocs)
	}
	if perProgram > maxBytes {
		t.Errorf("%d bytes allocated per program, want at most %d", perProgram, maxBytes)
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
