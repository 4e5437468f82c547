package core_test

import (
	"errors"
	"reflect"
	"testing"

	"jrpm"
	"jrpm/internal/core"
	"jrpm/internal/corpus"
	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// eventLog keeps a copy of every event a VM run emits.
type eventLog struct{ evs []vmsim.Event }

func (l *eventLog) ConsumeEvents(evs []vmsim.Event) { l.evs = append(l.evs, evs...) }

// captureEvents runs the annotated program once and returns its event
// stream.
func captureEvents(t *testing.T, src string, in jrpm.Input) (*tir.Program, []vmsim.Event) {
	t.Helper()
	c, err := jrpm.Compile(src, jrpm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vm, err := jrpm.NewVM(c.Annotated, in, hydra.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var log eventLog
	vm.Listeners = []vmsim.Listener{&log}
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	return c.Annotated, log.evs
}

// groupGrid is the allocation-policy grid of the reference test: every
// config shares geo, so they all fit one store geometry.
func groupGrid(geo func(*hydra.Config)) ([]hydra.Config, []core.Options) {
	var cfgs []hydra.Config
	var opts []core.Options
	for _, banks := range []int{0, 1, 2, 4, 8} {
		for _, slots := range []int{0, 3, hydra.DefaultConfig().Tracer.LocalSlots} {
			for _, free := range []float64{0, 0.9} {
				for _, quota := range []int64{0, 50} {
					for _, ext := range []bool{false, true} {
						cfg := hydra.DefaultConfig()
						cfg.Tracer.Banks = banks
						cfg.Tracer.LocalSlots = slots
						geo(&cfg)
						o := core.DefaultOptions()
						o.OverflowFree, o.ThreadQuota, o.Extended = free, quota, ext
						cfgs = append(cfgs, cfg)
						opts = append(opts, o)
					}
				}
			}
		}
	}
	return cfgs, opts
}

// runGrouped feeds evs to one model per GroupSize configs, as trace.Sweep
// cuts a geometry group, and returns every config's view. Each model
// releases its tables once fed, as trace.Sweep's do, so later models
// (of this geometry or another) run on reused tables and the views are
// read after Release.
func runGrouped(prog *tir.Program, evs []vmsim.Event, cfgs []hydra.Config, opts []core.Options) []*core.Tracer {
	var out []*core.Tracer
	for lo := 0; lo < len(cfgs); lo += core.GroupSize {
		hi := min(lo+core.GroupSize, len(cfgs))
		g, err := core.NewGroup(prog, cfgs[lo:hi], opts[lo:hi])
		if err != nil {
			panic(err)
		}
		for at := 0; at < len(evs); at += 512 {
			g.ConsumeEvents(evs[at:min(at+512, len(evs))])
		}
		g.Release()
		for i := range cfgs[lo:hi] {
			out = append(out, g.Tracer(i))
		}
	}
	return out
}

// TestGroupMatchesReference: for every config of a group, the shared
// model's statistics table and nesting edges equal those of the
// single-config reference tracer fed the same events. The streams are
// all 26 kernels and 100 default-corpus programs; the configs are the
// 120-config policy grid on the default geometry (two models), its
// first 70 configs on a tight geometry that overflows often (a 70-config
// group, cut into 64 + 6), and the policy grid again with
// HeapStoreLines cycling {0, 1, 32, 192} (two models of four FIFO
// depths each).
func TestGroupMatchesReference(t *testing.T) {
	type stream struct {
		name string
		src  string
		in   jrpm.Input
	}
	var streams []stream
	for _, w := range workloads.All() {
		streams = append(streams, stream{w.Meta.Name, w.Source, w.NewInput(0.2)})
	}
	_, progs, err := corpus.Compile(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(progs); i += 5 {
		streams = append(streams, stream{"corpus/" + progs[i].SHA256[:12], progs[i].Source, progs[i].Input()})
	}
	if n := len(streams) - len(workloads.All()); n < 100 {
		t.Fatalf("only %d corpus programs", n)
	}

	defCfgs, defOpts := groupGrid(func(*hydra.Config) {})
	tightCfgs, tightOpts := groupGrid(func(c *hydra.Config) {
		c.Tracer.HeapStoreLines = 32
		c.Tracer.LoadLineTS, c.Tracer.StoreLineTS = 64, 16
		c.Buffers.LoadLines, c.Buffers.StoreLines = 2, 1
	})
	tightCfgs, tightOpts = tightCfgs[:70], tightOpts[:70]
	depthCfgs, depthOpts := groupGrid(func(*hydra.Config) {})
	for i := range depthCfgs {
		depthCfgs[i].Tracer.HeapStoreLines = []int{0, 1, 32, 192}[i%4]
	}
	grids := []struct {
		cfgs []hydra.Config
		opts []core.Options
	}{{defCfgs, defOpts}, {tightCfgs, tightOpts}, {depthCfgs, depthOpts}}

	for _, s := range streams {
		prog, evs := captureEvents(t, s.src, s.in)
		for gi, grid := range grids {
			got := runGrouped(prog, evs, grid.cfgs, grid.opts)
			for i, cfg := range grid.cfgs {
				ref := core.NewRefTracer(prog, cfg, grid.opts[i])
				ref.ConsumeEvents(evs)
				if !reflect.DeepEqual(got[i].Results(), ref.Results()) {
					t.Fatalf("%s grid %d config %d (%+v, %+v): grouped Results differ from the reference",
						s.name, gi, i, cfg.Tracer, grid.opts[i])
				}
				if !reflect.DeepEqual(got[i].ParentEdges(), ref.ParentEdges()) {
					t.Fatalf("%s grid %d config %d: grouped ParentEdges differ from the reference", s.name, gi, i)
				}
			}
		}
	}
}

// TestGroupRejectsMixedGeometry: configs that differ in store geometry
// beyond the FIFO depth never share a model, configs that differ only
// in depth do, and no table may exceed MaxTableLines.
func TestGroupRejectsMixedGeometry(t *testing.T) {
	prog := makeProg(1)
	a := hydra.DefaultConfig()
	b := a
	b.Buffers.StoreLines = 32
	c := a
	c.Tracer.LoadLineTS = core.MaxTableLines + 1
	deep := a
	deep.Tracer.HeapStoreLines = core.MaxTableLines + 1
	for name, cfgs := range map[string][]hydra.Config{
		"mixed":          {a, b},
		"too large":      {c},
		"too deep mixed": {a, deep},
		"too many":       make([]hydra.Config, core.GroupSize+1),
		"none":           nil,
	} {
		if g, err := core.NewGroup(prog, cfgs, make([]core.Options, len(cfgs))); err == nil || g != nil {
			t.Errorf("%s: NewGroup accepted the configs", name)
		}
	}
	shallow := a
	shallow.Tracer.HeapStoreLines = 32
	if _, err := core.NewGroup(prog, []hydra.Config{a, shallow, a}, make([]core.Options, 3)); err != nil {
		t.Errorf("configs differing only in FIFO depth: %v", err)
	}
	var ge *core.GeometryError
	if _, err := core.NewGroup(prog, []hydra.Config{c}, make([]core.Options, 1)); !errors.As(err, &ge) || ge.Field != "LoadLineTS" {
		t.Errorf("oversized table: err = %v, want a *core.GeometryError on LoadLineTS", err)
	}
	if err := core.CheckGeometry(c); err == nil {
		t.Error("CheckGeometry passed a table over the bound")
	}
	if err := core.CheckGeometry(a); err != nil {
		t.Errorf("CheckGeometry rejected the default config: %v", err)
	}
}

// TestCheckGrid: a grid's groups share one store-table budget. Configs
// of one geometry cost one group's tables per GroupSize of them, and
// many distinct geometries, each within MaxTableLines, are refused once
// their tables add up past MaxGridTableLines.
func TestCheckGrid(t *testing.T) {
	same := make([]hydra.Config, 3*core.GroupSize)
	for i := range same {
		same[i] = hydra.DefaultConfig()
		same[i].Tracer.Banks = i
	}
	if err := core.CheckGrid(same); err != nil {
		t.Errorf("192 default-geometry configs: %v", err)
	}

	big := hydra.DefaultConfig()
	big.Tracer.LoadLineTS = core.MaxTableLines
	big.Tracer.StoreLineTS = core.MaxTableLines
	var many []hydra.Config
	for i := 0; i < 4; i++ {
		cfg := big
		cfg.Buffers.LoadLines = i + 1 // free to choose, but part of the key
		many = append(many, cfg)
	}
	if err := core.CheckGrid(many[:1]); err != nil {
		t.Errorf("one geometry at the per-table bound: %v", err)
	}
	var ge *core.GeometryError
	if err := core.CheckGrid(many); !errors.As(err, &ge) || ge.Bound != core.MaxGridTableLines {
		t.Errorf("4 distinct geometries at the per-table bound: err = %v, want the grid bound", err)
	}
	chunks := make([]hydra.Config, core.GroupSize+1) // two groups of one geometry
	for i := range chunks {
		chunks[i] = big
	}
	if err := core.CheckGrid(chunks[:core.GroupSize]); err != nil {
		t.Errorf("one full group at the per-table bound: %v", err)
	}
	if err := core.CheckGrid(chunks); err == nil {
		t.Error("two groups of one geometry at the per-table bound passed the grid bound")
	}
	over := big
	over.Tracer.HeapStoreLines = core.MaxTableLines + 1
	if err := core.CheckGrid([]hydra.Config{hydra.DefaultConfig(), over}); !errors.As(err, &ge) || ge.Field != "HeapStoreLines" {
		t.Errorf("one table over the bound: err = %v, want HeapStoreLines", err)
	}
}
