package service

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"jrpm"
	"jrpm/internal/workloads"
)

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestValidateBuildsNoInput: validating a workload job or session
// request checks the name and the scale without building the input, so
// a submit at MaxScale costs the handler no more than a small one. Built,
// the largest workload's input at MaxScale takes about 57 MB.
func TestValidateBuildsNoInput(t *testing.T) {
	const maxBytes = 64 << 10
	for _, w := range workloads.All() {
		name := w.Meta.Name
		job := Request{Workload: name, Scale: MaxScale, Speculate: true}
		if n := allocatedBy(func() {
			if err := job.validate(); err != nil {
				t.Fatalf("%s job: %v", name, err)
			}
		}); n > maxBytes {
			t.Errorf("%s: validating a job at scale %d allocated %d bytes, want at most %d", name, MaxScale, n, maxBytes)
		}
		sess := SessionRequest{Workload: name, Scale: MaxScale}
		if n := allocatedBy(func() {
			if err := sess.validate(); err != nil {
				t.Fatalf("%s session: %v", name, err)
			}
		}); n > maxBytes {
			t.Errorf("%s: validating a session at scale %d allocated %d bytes, want at most %d", name, MaxScale, n, maxBytes)
		}
	}
}

// TestInputMemoShared: concurrent jobs on one (workload, scale) share
// one memoized input, built once, and give bit-identically the result a
// run on a freshly built input gives. CI runs it under the race
// detector.
func TestInputMemoShared(t *testing.T) {
	const name, scale, jobs = "Huffman", 0.3, 8
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent first requests wait for one build and share its maps.
	m := newInputMemo(inputMemoBytes)
	ins := make([]jrpm.Input, jobs)
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ins[i] = m.get(w, scale)
		}()
	}
	wg.Wait()
	for i, in := range ins {
		if reflect.ValueOf(in.Ints).Pointer() != reflect.ValueOf(ins[0].Ints).Pointer() {
			t.Fatalf("request %d got its own input, want the one memoized input", i)
		}
	}
	if s := m.snapshot(); s.Misses != 1 || s.Hits != jobs-1 || s.Count != 1 {
		t.Fatalf("memo after %d concurrent requests: %+v, want 1 miss, %d hits, 1 entry", jobs, s, jobs-1)
	}

	// The reference: Compiled.Run on a fresh input.
	req := Request{Workload: name, Scale: scale, Speculate: true}
	c, err := jrpm.Compile(w.Source, req.options())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := c.Run(context.Background(), w.NewInput(scale), req.options(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := buildResult(sr.Profile, true)
	mergeSpeculation(want, sr)

	pool := NewPool(Config{Workers: 4})
	defer pool.Stop()
	j, err := pool.Submit(req) // fills the caches
	if err != nil {
		t.Fatal(err)
	}
	if first := mustWait(t, j); first.State != StateDone {
		t.Fatalf("first job %s: %s", first.State, first.Error)
	}
	views := make([]JobView, jobs)
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := pool.Submit(req)
			if err != nil {
				t.Error(err)
				return
			}
			views[i], _ = j.Wait(context.Background())
		}()
	}
	wg.Wait()
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("job %d %s: %s", i, v.State, v.Error)
		}
		if !reflect.DeepEqual(v.Result, want) {
			t.Errorf("job %d on the memoized input: %+v, want the fresh-input result %+v", i, v.Result, want)
		}
	}
	if s := pool.inputs.snapshot(); s.Misses != 1 || s.Hits != jobs {
		t.Errorf("pool memo: %+v, want 1 miss and %d hits", s, jobs)
	}
}

// TestInputMemoBound: the memo evicts least recently used inputs past
// its byte bound and never keeps an input larger than the bound, which
// its caller still gets.
func TestInputMemoBound(t *testing.T) {
	get := func(name string) *workloads.Workload {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	huff, lu := get("Huffman"), get("LuFactor")
	small := inputBytes(huff.NewInput(0.2))
	m := newInputMemo(2*small + small/2) // room for two of the small inputs

	m.get(huff, 0.2)
	m.get(huff, 0.21)
	m.get(huff, 0.2) // most recently used: 0.2, then 0.21
	m.get(huff, 0.19)
	s := m.snapshot()
	if s.Count != 2 || s.Bytes > m.c.max {
		t.Fatalf("after three inputs: %+v, want 2 entries within %d bytes", s, m.c.max)
	}
	if _, ok := m.c.items[inputKey{huff.Meta.Name, 0.21}]; ok {
		t.Error("the least recently used input was kept, want it evicted")
	}
	if _, ok := m.c.items[inputKey{huff.Meta.Name, 0.2}]; !ok {
		t.Error("the recently used input was evicted")
	}

	big := m.get(lu, 4)
	if !reflect.DeepEqual(big, lu.NewInput(4)) {
		t.Fatal("an input over the bound differs from a fresh one")
	}
	if inputBytes(big) <= m.c.max {
		t.Fatalf("LuFactor at scale 4 takes %d bytes, within the %d-byte bound", inputBytes(big), m.c.max)
	}
	if after := m.snapshot(); after.Count != s.Count || after.Bytes != s.Bytes {
		t.Errorf("memo after an input over its bound: %+v, want it unchanged from %+v", after, s)
	}
}
