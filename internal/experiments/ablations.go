package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"

	"jrpm"
	"jrpm/internal/cluster"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/profile"
	"jrpm/internal/tir"
	"jrpm/internal/trace"
	"jrpm/internal/vmsim"
	"jrpm/internal/workloads"
)

// GridSweeper replays one recording under a configuration grid and
// returns the canonical outcome rows. cluster.Local runs the grid
// in-process; *cluster.Coordinator shards it across jrpmd workers — the
// canonical encoding is byte-identical either way, so the ablations
// produce the same tables no matter where the replays ran.
type GridSweeper interface {
	SweepRecording(ctx context.Context, name, source string, data []byte, cfgs []hydra.Config, opts jrpm.Options) ([]cluster.OutcomeRow, error)
}

// This file holds ablations of TEST's design choices, each tied to a claim
// in the paper:
//
//   - AblateBanks: "eight comparator banks are sufficient to analyze most
//     of the benchmark programs without intervention from the runtime
//     system" (§6.1) — sweep the bank count and measure how many loop
//     entries go untraced.
//
//   - AblateHistory: the 192-line store-timestamp FIFO bounds the write
//     history (§5.3); §6.2 lists the "limited history of heap access store
//     timestamps" as an imprecision source — sweep the depth and count the
//     dependency arcs that survive.
//
//   - AblateBins: §6.2 claims "available parallelism was mostly determined
//     by dependency behavior to recent, not distant, past threads", i.e.
//     two bins (t-1, <t-1) are enough — compare Equation 1 under the
//     hardware's two bins against an oracle with exact per-distance bins.

// BankRow is one bank-count configuration's outcome.
type BankRow struct {
	Banks          int
	TracedEntries  int64
	SkippedEntries int64
	SkippedFrac    float64
	// MeanPredicted is the mean predicted program speedup across the
	// suite: with too few banks, deep loops go unobserved and the
	// selector has less to work with.
	MeanPredicted float64
}

// AblateBanks sweeps the comparator bank count. Record once, replay many:
// each workload is executed exactly once (one clean + one traced run,
// captured by internal/trace); every bank configuration is then a cheap
// parallel replay of the recording — the tracer is a pure function of the
// event stream, so the results are bit-identical to re-running the VM
// per configuration, at a fraction of the cost.
func AblateBanks(scale float64, bankCounts []int) ([]BankRow, string, error) {
	return AblateBanksOn(context.Background(), cluster.Local{}, scale, bankCounts)
}

// AblateBanksOn is AblateBanks with the replay engine pluggable: pass a
// *cluster.Coordinator to run the bank grid across a worker fleet.
func AblateBanksOn(ctx context.Context, sw GridSweeper, scale float64, bankCounts []int) ([]BankRow, string, error) {
	rows := make([]BankRow, len(bankCounts))
	opts := jrpm.DefaultOptions()
	cfgs := make([]hydra.Config, len(bankCounts))
	for i, banks := range bankCounts {
		rows[i].Banks = banks
		cfgs[i] = opts.Cfg
		cfgs[i].Tracer.Banks = banks
	}
	n := 0
	err := sweepSuite(ctx, sw, scale, opts, cfgs, func(ci int, row cluster.OutcomeRow) {
		for _, st := range row.Loops {
			rows[ci].TracedEntries += st.Entries
			rows[ci].SkippedEntries += st.SkippedEntries
		}
		rows[ci].MeanPredicted += row.PredictedSpeedup()
		if ci == 0 {
			n++
		}
	})
	if err != nil {
		return nil, "", err
	}
	for i := range rows {
		if t := rows[i].TracedEntries + rows[i].SkippedEntries; t > 0 {
			rows[i].SkippedFrac = float64(rows[i].SkippedEntries) / float64(t)
		}
		rows[i].MeanPredicted /= float64(n)
	}
	var sb strings.Builder
	sb.WriteString("Ablation: comparator bank count (paper: 8 banks suffice)\n")
	fmt.Fprintf(&sb, "%6s %14s %14s %10s %14s\n", "banks", "traced", "skipped", "skipped%", "mean pred.")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%6d %14d %14d %9.2f%% %13.2fx\n",
			r.Banks, r.TracedEntries, r.SkippedEntries, 100*r.SkippedFrac, r.MeanPredicted)
	}
	return rows, sb.String(), nil
}

// HistoryRow is one FIFO-depth configuration's outcome.
type HistoryRow struct {
	Lines    int
	ArcCount int64 // dependency arcs detected across the suite
	// MeanSelectedEst is the mean Equation 1 estimate over selected
	// loops: with a shallow history, arcs are missed and estimates
	// inflate.
	MeanSelectedEst float64
}

// AblateHistory sweeps the heap store-timestamp FIFO depth, with the same
// record-once / replay-many structure as AblateBanks.
func AblateHistory(scale float64, depths []int) ([]HistoryRow, string, error) {
	return AblateHistoryOn(context.Background(), cluster.Local{}, scale, depths)
}

// AblateHistoryOn is AblateHistory with the replay engine pluggable.
func AblateHistoryOn(ctx context.Context, sw GridSweeper, scale float64, depths []int) ([]HistoryRow, string, error) {
	rows := make([]HistoryRow, len(depths))
	opts := jrpm.DefaultOptions()
	cfgs := make([]hydra.Config, len(depths))
	estSum := make([]float64, len(depths))
	estN := make([]int, len(depths))
	for i, d := range depths {
		rows[i].Lines = d
		cfgs[i] = opts.Cfg
		cfgs[i].Tracer.HeapStoreLines = d
	}
	err := sweepSuite(ctx, sw, scale, opts, cfgs, func(ci int, row cluster.OutcomeRow) {
		for _, st := range row.Loops {
			rows[ci].ArcCount += st.ArcCount[core.BinPrev] + st.ArcCount[core.BinEarlier]
		}
		for _, est := range row.SelectedEsts() {
			estSum[ci] += est.Speedup
			estN[ci]++
		}
	})
	if err != nil {
		return nil, "", err
	}
	for i := range rows {
		if estN[i] > 0 {
			rows[i].MeanSelectedEst = estSum[i] / float64(estN[i])
		}
	}
	var sb strings.Builder
	sb.WriteString("Ablation: store-timestamp FIFO depth (paper: 192 lines = 6kB history)\n")
	fmt.Fprintf(&sb, "%8s %14s %18s\n", "lines", "arcs found", "mean selected est")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8d %14d %17.2fx\n", r.Lines, r.ArcCount, r.MeanSelectedEst)
	}
	return rows, sb.String(), nil
}

// sweepSuite records every workload once and replays the recording under
// each machine configuration through the given sweeper — in-process
// goroutines (cluster.Local) or a jrpmd worker fleet
// (*cluster.Coordinator) — calling visit(configIndex, row) for every
// (workload, config) pair. This is the 1-run + N-replay core shared by
// the ablation sweeps; TestSweepNoExtraExecutions pins the execution
// count.
func sweepSuite(ctx context.Context, sw GridSweeper, scale float64, opts jrpm.Options, cfgs []hydra.Config, visit func(ci int, row cluster.OutcomeRow)) error {
	for _, w := range workloads.All() {
		in := w.NewInput(scale)
		c, err := jrpm.Compile(w.Source, opts)
		if err != nil {
			return fmt.Errorf("%s: compile: %w", w.Meta.Name, err)
		}
		var buf bytes.Buffer
		if _, err := c.ProfileRecord(ctx, in, opts, &buf); err != nil {
			return fmt.Errorf("%s: record: %w", w.Meta.Name, err)
		}
		rows, err := sw.SweepRecording(ctx, w.Meta.Name, w.Source, buf.Bytes(), cfgs, opts)
		if err != nil {
			return fmt.Errorf("%s: sweep: %w", w.Meta.Name, err)
		}
		for ci, row := range rows {
			if row.Err != "" {
				return fmt.Errorf("%s: replay config %d: %s", w.Meta.Name, ci, row.Err)
			}
			visit(ci, row)
		}
	}
	return nil
}

// replayInto replays a recorded trace into an arbitrary VM listener.
func replayInto(c *jrpm.Compiled, data []byte, l vmsim.Listener) error {
	r, err := trace.NewBytesReader(data)
	if err != nil {
		return err
	}
	r.NumLoops = len(c.Annotated.Loops)
	_, err = r.Replay(l)
	return err
}

// ---------------------------------------------------------------------------
// Exact-distance oracle for the two-bin ablation.

// distStats accumulates critical arcs per exact thread distance.
type distStats struct {
	count  map[int]int64
	lenSum map[int]int64
}

// oracleEntry tracks one active loop entry with unlimited precision.
type oracleEntry struct {
	loop        int
	frame       uint64
	allowed     map[int]bool // the loop's own globalized locals
	threadStart []int64      // start time of every thread so far
	// Per-thread minimum arc per distance.
	curMin map[int]int64
}

// OracleTracer is a software listener with no hardware limits: exact store
// timestamps for every address, and critical arcs binned by exact thread
// distance. It exists purely to quantify what the two-bin hardware loses.
type OracleTracer struct {
	prog    *tir.Program
	stack   []*oracleEntry
	stores  map[uint64]int64 // address/slot -> last store time
	perLoop map[int]*distStats
}

var _ vmsim.Listener = (*OracleTracer)(nil)

// ConsumeEvents implements vmsim.Listener. Locals are keyed by a
// synthetic slot address disjoint from the 32-bit heap and filtered per
// loop to its own globalized variables; read-stats and call events are
// ignored.
func (o *OracleTracer) ConsumeEvents(evs []vmsim.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case vmsim.EvHeapLoad, vmsim.EvHeapStore:
			o.access(ev.Now, uint64(ev.Addr), ev.Kind == vmsim.EvHeapStore, false, vmsim.SlotID{})
		case vmsim.EvLocalLoad, vmsim.EvLocalStore:
			key := 1<<40 | ev.Frame<<12 | uint64(ev.Slot&0xfff)
			o.access(ev.Now, key, ev.Kind == vmsim.EvLocalStore, true, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)})
		case vmsim.EvLoopStart:
			o.loopStart(ev.Now, int(ev.Loop), ev.Frame)
		case vmsim.EvLoopIter:
			o.loopIter(ev.Now, int(ev.Loop))
		case vmsim.EvLoopEnd:
			o.loopEnd(ev.Now, int(ev.Loop))
		}
	}
}

// NewOracleTracer builds the unlimited-precision reference tracer for an
// annotated program (the loop table supplies each loop's globalized local
// set, mirroring the hardware's per-bank reservations).
func NewOracleTracer(prog *tir.Program) *OracleTracer {
	return &OracleTracer{prog: prog, stores: map[uint64]int64{}, perLoop: map[int]*distStats{}}
}

// Results returns per-loop arc statistics by exact distance.
func (o *OracleTracer) Results() map[int]*distStats { return o.perLoop }

// DistanceHistogram returns (distance -> arc count) for a loop.
func (o *OracleTracer) DistanceHistogram(loop int) map[int]int64 {
	ds := o.perLoop[loop]
	if ds == nil {
		return nil
	}
	out := make(map[int]int64, len(ds.count))
	for k, v := range ds.count {
		out[k] = v
	}
	return out
}

func (o *OracleTracer) loopStats(loop int) *distStats {
	ds := o.perLoop[loop]
	if ds == nil {
		ds = &distStats{count: map[int]int64{}, lenSum: map[int]int64{}}
		o.perLoop[loop] = ds
	}
	return ds
}

// loopStart pushes an entry.
func (o *OracleTracer) loopStart(now int64, loop int, frame uint64) {
	e := &oracleEntry{
		loop:        loop,
		frame:       frame,
		allowed:     map[int]bool{},
		threadStart: []int64{now},
		curMin:      map[int]int64{},
	}
	if loop >= 0 && loop < len(o.prog.Loops) {
		for _, slot := range o.prog.Loops[loop].AnnLocals {
			e.allowed[slot] = true
		}
	}
	o.stack = append(o.stack, e)
}

func (e *oracleEntry) endThread(o *OracleTracer, now int64) {
	ds := o.loopStats(e.loop)
	for dist, arc := range e.curMin {
		ds.count[dist]++
		ds.lenSum[dist] += arc
	}
	e.curMin = map[int]int64{}
	e.threadStart = append(e.threadStart, now)
}

// loopIter folds the finished thread.
func (o *OracleTracer) loopIter(now int64, loop int) {
	for i := len(o.stack) - 1; i >= 0; i-- {
		if o.stack[i].loop == loop {
			o.stack[i].endThread(o, now)
			return
		}
	}
}

// loopEnd folds the final thread and pops.
func (o *OracleTracer) loopEnd(now int64, loop int) {
	n := len(o.stack) - 1
	if n < 0 {
		return
	}
	e := o.stack[n]
	o.stack = o.stack[:n]
	if e.loop != loop {
		return
	}
	e.endThread(o, now)
}

func (o *OracleTracer) access(now int64, key uint64, isStore bool, local bool, id vmsim.SlotID) {
	if isStore {
		o.stores[key] = now
		return
	}
	ts, ok := o.stores[key]
	if !ok {
		return
	}
	for _, e := range o.stack {
		if local && (e.frame != id.Frame || !e.allowed[id.Slot]) {
			// Not one of this loop's globalized variables: for this loop
			// the variable is private, inductive or callee-local.
			continue
		}
		if ts < e.threadStart[0] {
			continue // before this entry
		}
		cur := len(e.threadStart) - 1
		if ts >= e.threadStart[cur] {
			continue // intra-thread
		}
		// Exact distance: which thread issued the store?
		idx := sort.Search(len(e.threadStart), func(i int) bool { return e.threadStart[i] > ts }) - 1
		dist := cur - idx
		arc := now - ts
		if old, ok := e.curMin[dist]; !ok || arc < old {
			e.curMin[dist] = arc
		}
	}
}

// oracleSpeedup evaluates Equation 1's structure with exact distance bins:
// each bin k constrains the initiation interval to T - A_k/k.
func oracleSpeedup(s *core.LoopStats, ds *distStats, cfg jrpm.Options) float64 {
	p := float64(cfg.Cfg.CPUs)
	if s == nil || s.Threads == 0 || s.Cycles == 0 {
		return 0
	}
	T := float64(s.Cycles) / float64(s.Threads)
	pairs := float64(s.Threads - s.Entries)
	if pairs <= 0 {
		pairs = 1
	}
	iMin := T / p
	iEff := 0.0
	fTot := 0.0
	if ds != nil {
		for dist, cnt := range ds.count {
			if dist < 1 {
				continue
			}
			f := float64(cnt) / pairs
			A := float64(ds.lenSum[dist]) / float64(cnt)
			ik := T - A/float64(dist)
			if ik < iMin {
				ik = iMin
			}
			if ik > T {
				ik = T
			}
			iEff += f * ik
			fTot += f
		}
	}
	if fTot > 1 {
		iEff /= fTot
		fTot = 1
	}
	iEff += (1 - fTot) * iMin
	base := T / iEff
	if base > p {
		base = p
	}
	if base < 1 {
		base = 1
	}
	ov := cfg.Cfg.Overheads
	d := profile.Derive(s)
	spec := float64(s.Entries)*float64(ov.LoopStartup+ov.LoopShutdown) +
		float64(s.Threads)*float64(ov.EndOfIter) +
		float64(s.Cycles)*(d.OverflowFreq+(1-d.OverflowFreq)/base)
	sp := float64(s.Cycles) / spec
	if cap := d.AvgItersPerEntry; cap < p && sp > cap {
		sp = cap
	}
	if sp > p {
		sp = p
	}
	return sp
}

// BinsRow compares the hardware two-bin estimate with the exact-distance
// oracle for one benchmark's selected loops.
type BinsRow struct {
	Name      string
	TwoBin    float64 // coverage-weighted selected estimate, 2 bins
	ExactBins float64 // same loops under the oracle estimator
	Actual    float64 // TLS-simulated speedup of the same loops
}

// AblateBins runs the two-bin-versus-exact comparison across the suite.
func AblateBins(scale float64) ([]BinsRow, string, error) {
	var rows []BinsRow
	for _, w := range workloads.All() {
		in := w.NewInput(scale)
		opts := jrpm.DefaultOptions()

		c, err := jrpm.Compile(w.Source, opts)
		if err != nil {
			return nil, "", err
		}
		var buf bytes.Buffer
		pr, err := c.ProfileRecord(context.Background(), in, opts, &buf)
		if err != nil {
			return nil, "", err
		}
		// The oracle consumes the same event stream the hardware model
		// saw; replay it from the recording instead of re-running the VM.
		oracle := NewOracleTracer(pr.Annotated)
		if err := replayInto(c, buf.Bytes(), oracle); err != nil {
			return nil, "", err
		}
		spec, err := jrpm.Speculate(in, pr)
		if err != nil {
			return nil, "", err
		}

		an := pr.Analysis
		row := BinsRow{Name: w.Meta.Name}
		var wsum float64
		for _, n := range an.Selected {
			cov := float64(n.Stats.Cycles) / float64(an.TotalCycles)
			wsum += cov
			row.TwoBin += cov * n.Est.Speedup
			row.ExactBins += cov * oracleSpeedup(n.Stats, oracle.perLoop[n.Loop], opts)
			if r := spec.Loops[n.Loop]; r != nil {
				row.Actual += cov * r.Speedup
			}
		}
		if wsum > 0 {
			row.TwoBin /= wsum
			row.ExactBins /= wsum
			row.Actual /= wsum
		}
		rows = append(rows, row)
	}
	var sb strings.Builder
	sb.WriteString("Ablation: two dependency bins (t-1, <t-1) vs exact distances\n")
	fmt.Fprintf(&sb, "%-14s %10s %10s %10s\n", "Benchmark", "2 bins", "exact", "actual")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %9.2fx %9.2fx %9.2fx\n", r.Name, r.TwoBin, r.ExactBins, r.Actual)
	}
	sb.WriteString("The paper's claim (§6.2): parallelism is determined by recent, not\n")
	sb.WriteString("distant, past threads — the two-bin estimates should track the exact ones.\n")
	return rows, sb.String(), nil
}

// runWithListener re-runs an already-profiled program with a listener.
func runWithListener(pr *jrpm.ProfileResult, in jrpm.Input, opts jrpm.Options, l vmsim.Listener) error {
	vm := vmsim.New(pr.Annotated)
	vm.AnnotCost = opts.Cfg.Tracer.AnnotCost
	vm.ReadStatsCost = opts.Cfg.Tracer.ReadStatsCost
	if err := vm.BindInputs(in.Ints, in.Floats); err != nil {
		return err
	}
	vm.Listeners = append(vm.Listeners, l)
	return vm.Run("main")
}
