package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"jrpm"
	"jrpm/internal/annotate"
	"jrpm/internal/hydra"
	"jrpm/internal/lang"
	"jrpm/internal/telemetry"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
	"jrpm/internal/vmsim/refvm"
)

// stage is one named step of an operation in the traced pass. The names
// are the span names and the prefixes of the per-layer metrics.
type stage int

const (
	stResolve stage = iota
	stCache
	stCompile
	stAnnotate
	stPredecode
	stCleanRun
	stAnnotatedRun
	stModel
	stAnalyze
	stPlan
	stRecord
	stSimulate
	stEncode
	stDecode
	stClusterEncode
	numStages
)

var stageNames = [numStages]string{
	stResolve:       "service.resolve",
	stCache:         "service.cache",
	stCompile:       "lang.compile",
	stAnnotate:      "annotate.apply",
	stPredecode:     "vmsim.predecode",
	stCleanRun:      "vmsim.clean_run",
	stAnnotatedRun:  "vmsim.annotated_run",
	stModel:         "core.model",
	stAnalyze:       "profile.analyze",
	stPlan:          "jit.plan",
	stRecord:        "tls.record",
	stSimulate:      "tls.simulate",
	stEncode:        "trace.encode",
	stDecode:        "trace.decode",
	stClusterEncode: "cluster.encode",
}

// stages accumulates one decomposed operation's stage times and work
// counts. Each stage is also recorded as a telemetry span, a child of the
// operation's span in ctx.
type stages struct {
	ctx context.Context
	ns  [numStages]int64

	tirInstrs    int64 // TIR instructions emitted by lang.Compile
	annotations  int64 // annotation instructions inserted
	vmCycles     int64 // simulated cycles of the clean and annotated runs
	events       int64 // events captured from annotated runs
	modelEvents  int64 // events consumed by the comparator-bank model
	modelAllocs  uint64
	accesses     int64 // memory accesses recorded for the TLS simulation
	traceBytes   int64 // trace bytes written
	decodedBytes int64 // trace bytes decoded

	pauseNs int64 // allocation-counting pauses inside the operation
	mem     runtime.MemStats
}

// time runs fn as stage st. Only fn's own run time counts toward the
// stage; span bookkeeping falls outside it.
func (s *stages) time(st stage, fn func() error) error {
	_, sp := telemetry.StartSpan(s.ctx, stageNames[st])
	t0 := time.Now()
	err := fn()
	s.ns[st] += int64(time.Since(t0))
	sp.Fail(err)
	sp.End()
	return err
}

// model runs the comparator-bank model stage and counts its heap
// allocations. runtime.ReadMemStats flushes the per-P caches, so the
// count is exact; its stop-the-world pauses are the benchmark's, not the
// operation's, and are kept in pauseNs.
func (s *stages) model(fn func()) {
	_, sp := telemetry.StartSpan(s.ctx, stageNames[stModel])
	p0 := time.Now()
	runtime.ReadMemStats(&s.mem)
	before := s.mem.Mallocs
	t0 := time.Now()
	fn()
	t1 := time.Now()
	runtime.ReadMemStats(&s.mem)
	s.modelAllocs += s.mem.Mallocs - before
	s.ns[stModel] += int64(t1.Sub(t0))
	s.pauseNs += int64(t0.Sub(p0) + time.Since(t1))
	sp.End()
}

func (s *stages) total() int64 {
	var t int64
	for _, ns := range s.ns {
		t += ns
	}
	return t
}

// capture is a cheap event sink for the annotated run and for trace
// decoding: it keeps the event stream so the comparator-bank model and the
// trace writer can be timed on their own afterwards.
type capture struct{ evs []vmsim.Event }

var (
	_ vmsim.Listener      = (*capture)(nil)
	_ vmsim.BatchConsumer = (*capture)(nil)
)

func (c *capture) reset() { c.evs = c.evs[:0] }

func (c *capture) ConsumeEvents(evs []vmsim.Event) { c.evs = append(c.evs, evs...) }

func (c *capture) HeapLoad(now int64, addr uint32, pc int) {
	c.evs = append(c.evs, vmsim.Event{Kind: vmsim.EvHeapLoad, Now: now, Addr: addr, PC: int32(pc)})
}

func (c *capture) HeapStore(now int64, addr uint32, pc int) {
	c.evs = append(c.evs, vmsim.Event{Kind: vmsim.EvHeapStore, Now: now, Addr: addr, PC: int32(pc)})
}

func (c *capture) LocalLoad(now int64, id vmsim.SlotID, pc int) {
	c.evs = append(c.evs, vmsim.Event{Kind: vmsim.EvLocalLoad, Now: now, Frame: id.Frame, Slot: int32(id.Slot), PC: int32(pc)})
}

func (c *capture) LocalStore(now int64, id vmsim.SlotID, pc int) {
	c.evs = append(c.evs, vmsim.Event{Kind: vmsim.EvLocalStore, Now: now, Frame: id.Frame, Slot: int32(id.Slot), PC: int32(pc)})
}

func (c *capture) LoopStart(now int64, loop, numLocals int, frame uint64) {
	c.evs = append(c.evs, vmsim.Event{Kind: vmsim.EvLoopStart, Now: now, Loop: int32(loop), NumLocals: int32(numLocals), Frame: frame})
}

func (c *capture) LoopIter(now int64, loop int) {
	c.evs = append(c.evs, vmsim.Event{Kind: vmsim.EvLoopIter, Now: now, Loop: int32(loop)})
}

func (c *capture) LoopEnd(now int64, loop int) {
	c.evs = append(c.evs, vmsim.Event{Kind: vmsim.EvLoopEnd, Now: now, Loop: int32(loop)})
}

func (c *capture) ReadStats(now int64, loop int) {
	c.evs = append(c.evs, vmsim.Event{Kind: vmsim.EvReadStats, Now: now, Loop: int32(loop)})
}

// globalBinder is the binding surface vmsim.VM and refvm.VM share.
type globalBinder interface {
	BindGlobalInts(name string, vals []int64) error
	BindGlobalFloats(name string, vals []float64) error
}

// bindInputs binds in sorted name order, as jrpm does: heap addresses are
// assigned at bind time, so the order fixes the address stream.
func bindInputs(vm globalBinder, in jrpm.Input) error {
	for _, name := range sortedKeys(in.Ints) {
		if err := vm.BindGlobalInts(name, in.Ints[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(in.Floats) {
		if err := vm.BindGlobalFloats(name, in.Floats[name]); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// newVM builds a VM the way the jrpm pipeline does for each of its runs.
func newVM(prog *tir.Program, in jrpm.Input, cfg hydra.Config, listeners ...vmsim.Listener) (*vmsim.VM, error) {
	vm := vmsim.New(prog)
	vm.AnnotCost = cfg.Tracer.AnnotCost
	vm.ReadStatsCost = cfg.Tracer.ReadStatsCost
	vm.Listeners = listeners
	return vm, bindInputs(vm, in)
}

// refCycles runs the clean and annotated programs on refvm, the
// independent oracle interpreter, and returns their cycle counts.
func refCycles(c *jrpm.Compiled, in jrpm.Input) (clean, traced int64, err error) {
	cfg := hydra.DefaultConfig()
	for i, prog := range []*tir.Program{c.Clean, c.Annotated} {
		vm := refvm.New(prog)
		vm.AnnotCost = cfg.Tracer.AnnotCost
		vm.ReadStatsCost = cfg.Tracer.ReadStatsCost
		if err := bindInputs(vm, in); err != nil {
			return 0, 0, err
		}
		if err := vm.Run("main"); err != nil {
			return 0, 0, fmt.Errorf("refvm: %w", err)
		}
		if i == 0 {
			clean = vm.Cycles
		} else {
			traced = vm.Cycles
		}
	}
	return clean, traced, nil
}

func countInstrs(p *tir.Program) int64 {
	var n int64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += int64(len(b.Instrs))
		}
	}
	return n
}

// compileStages is jrpm.Compile split into its layer calls, in the same
// order and with the same arguments.
func compileStages(s *stages, src string, opts jrpm.Options) (*jrpm.Compiled, error) {
	var clean, annotated *tir.Program
	var nAnnot int
	compile := func(dst **tir.Program) (err error) {
		*dst, err = lang.Compile(src)
		return err
	}
	if err := s.time(stCompile, func() error { return compile(&clean) }); err != nil {
		return nil, err
	}
	s.tirInstrs += countInstrs(clean)
	if err := s.time(stAnnotate, func() error {
		_, err := annotate.Apply(clean, annotate.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := s.time(stCompile, func() error { return compile(&annotated) }); err != nil {
		return nil, err
	}
	s.tirInstrs += countInstrs(annotated)
	if err := s.time(stAnnotate, func() error {
		n, err := annotate.Apply(annotated, opts.Annot)
		nAnnot = n
		return err
	}); err != nil {
		return nil, err
	}
	s.annotations += int64(nAnnot)
	s.time(stPredecode, func() error {
		vmsim.Predecode(clean)
		vmsim.Predecode(annotated)
		return nil
	})
	return &jrpm.Compiled{Clean: clean, Annotated: annotated, AnnotationCount: nAnnot, Annot: opts.Annot, Optimize: opts.Optimize}, nil
}

// profileRuns is the VM part of Compiled.Profile split into stages: the
// clean run, then the annotated run with its event stream captured into
// sink. It returns the clean run's cycle count and the annotated VM, whose
// cycles and counters the analysis and the trace summary need.
func profileRuns(s *stages, c *jrpm.Compiled, in jrpm.Input, cfg hydra.Config, sink *capture) (clean int64, vm *vmsim.VM, err error) {
	err = s.time(stCleanRun, func() error {
		v, err := newVM(c.Clean, in, cfg)
		if err != nil {
			return err
		}
		if err := v.Run("main"); err != nil {
			return err
		}
		clean = v.Cycles
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	sink.reset()
	err = s.time(stAnnotatedRun, func() error {
		v, err := newVM(c.Annotated, in, cfg, sink)
		if err != nil {
			return err
		}
		vm = v
		return v.Run("main")
	})
	if err != nil {
		return 0, nil, err
	}
	s.vmCycles += clean + vm.Cycles
	s.events += int64(len(sink.evs))
	return clean, vm, nil
}
