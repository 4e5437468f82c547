package cluster

import (
	"encoding/json"
	"slices"

	"jrpm/internal/core"
	"jrpm/internal/profile"
	"jrpm/internal/trace"

	"jrpm/internal/hydra"
)

// OutcomeRow is the canonical, wire-safe form of one trace.SweepOutcome:
// everything the analysis produced — the per-loop tracer table, the
// dynamic nesting edges, the loop tree with estimates and selection
// state — flattened into sorted slices so that encoding is deterministic.
// Two sweeps of the same recording under the same configuration produce
// byte-identical Canonical encodings, which is what the coordinator's
// sentinel determinism check and TestClusterEquivalence compare.
//
// All numeric fields survive a JSON round trip exactly: integers are
// decoded digit-for-digit and Go's float64 encoding is the shortest
// representation that parses back to the identical bits.
type OutcomeRow struct {
	Cfg hydra.Config `json:"cfg"`
	// Err is the replay error, if the configuration failed; all other
	// fields are zero in that case.
	Err string `json:"err,omitempty"`

	CleanCycles     int64   `json:"clean_cycles"`
	TracedCycles    int64   `json:"traced_cycles"`
	Scale           float64 `json:"scale"`
	PredictedCycles float64 `json:"predicted_cycles"`

	// Loops is the tracer's per-loop statistics table, sorted by loop id.
	Loops []LoopRow `json:"loops,omitempty"`
	// Edges is the observed dynamic nesting (child, parent, entries),
	// sorted by (child, parent); parent -1 is top level.
	Edges []EdgeRow `json:"edges,omitempty"`
	// Nodes is the analyzed loop tree, sorted by loop id.
	Nodes []NodeRow `json:"nodes,omitempty"`
	// Selected is the chosen STL set in selection order (descending
	// coverage).
	Selected []int `json:"selected,omitempty"`
}

// LoopRow is one core.LoopStats entry of the tracer table.
type LoopRow struct {
	Loop           int      `json:"loop"`
	Cycles         int64    `json:"cycles"`
	Threads        int64    `json:"threads"`
	Entries        int64    `json:"entries"`
	ArcCount       [2]int64 `json:"arc_count"`
	ArcLenSum      [2]int64 `json:"arc_len_sum"`
	Overflows      int64    `json:"overflows"`
	MaxLdLines     int      `json:"max_ld_lines"`
	MaxStLines     int      `json:"max_st_lines"`
	SkippedEntries int64    `json:"skipped_entries"`
	// PCArcs carries the extended tracer's per-load-PC bins, sorted by PC.
	PCArcs []PCArcRow `json:"pc_arcs,omitempty"`
}

// PCArcRow is one per-PC arc record of the extended tracer.
type PCArcRow struct {
	PC     int   `json:"pc"`
	Count  int64 `json:"count"`
	LenSum int64 `json:"len_sum"`
	MinLen int64 `json:"min_len"`
}

// EdgeRow is one dynamic nesting edge.
type EdgeRow struct {
	Child  int   `json:"child"`
	Parent int   `json:"parent"`
	Count  int64 `json:"count"`
}

// NodeRow is one loop-tree node of the analysis.
type NodeRow struct {
	Loop     int              `json:"loop"`
	Parent   int              `json:"parent"` // -1 for roots
	Height   int              `json:"height"`
	Depth    int              `json:"depth"`
	Selected bool             `json:"selected"`
	Est      profile.Estimate `json:"est"`
	TLSTime  float64          `json:"tls_time"`
	BestTime float64          `json:"best_time"`
}

// EncodeOutcome flattens one sweep outcome into its canonical row. Each
// table is allocated once, at its exact size: the tracer's per-PC bins
// share one array, every loop's bins a capacity-clipped window of it, and
// one scratch array serves every sort of map keys.
func EncodeOutcome(o trace.SweepOutcome) OutcomeRow {
	row := OutcomeRow{Cfg: o.Job.Cfg}
	if o.Err != nil {
		row.Err = o.Err.Error()
		return row
	}

	stats := o.Tracer.Results()
	edges := o.Tracer.ParentEdges()
	an := o.Analysis

	// The scratch holds a sorted key list and, behind it, the keys of the
	// one map being walked under it: a loop's PCs, a child's parents.
	nPCs, maxPCs := 0, 0
	for _, s := range stats {
		nPCs += len(s.PCArcs)
		maxPCs = max(maxPCs, len(s.PCArcs))
	}
	nEdges, maxParents := 0, 0
	for _, ps := range edges {
		nEdges += len(ps)
		maxParents = max(maxParents, len(ps))
	}
	scratch := make([]int, max(len(stats)+maxPCs, len(edges)+maxParents, len(an.Nodes)))

	ids := sortedKeys(scratch, stats)
	row.Loops = make([]LoopRow, 0, len(ids))
	arcs := make([]PCArcRow, 0, nPCs)
	for _, id := range ids {
		s := stats[id]
		lr := LoopRow{
			Loop:           s.Loop,
			Cycles:         s.Cycles,
			Threads:        s.Threads,
			Entries:        s.Entries,
			ArcCount:       s.ArcCount,
			ArcLenSum:      s.ArcLenSum,
			Overflows:      s.Overflows,
			MaxLdLines:     s.MaxLdLines,
			MaxStLines:     s.MaxStLines,
			SkippedEntries: s.SkippedEntries,
		}
		if len(s.PCArcs) > 0 {
			first := len(arcs)
			for _, pc := range sortedKeys(scratch[len(ids):], s.PCArcs) {
				a := s.PCArcs[pc]
				arcs = append(arcs, PCArcRow{PC: pc, Count: a.Count, LenSum: a.LenSum, MinLen: a.MinLen})
			}
			lr.PCArcs = arcs[first:len(arcs):len(arcs)]
		}
		row.Loops = append(row.Loops, lr)
	}

	if nEdges > 0 {
		row.Edges = make([]EdgeRow, 0, nEdges)
	}
	children := sortedKeys(scratch, edges)
	for _, c := range children {
		for _, p := range sortedKeys(scratch[len(children):], edges[c]) {
			row.Edges = append(row.Edges, EdgeRow{Child: c, Parent: p, Count: edges[c][p]})
		}
	}

	row.CleanCycles = an.CleanCycles
	row.TracedCycles = an.TotalCycles
	row.Scale = an.Scale
	row.PredictedCycles = an.PredictedCycles

	nids := sortedKeys(scratch, an.Nodes)
	row.Nodes = make([]NodeRow, 0, len(nids))
	for _, id := range nids {
		n := an.Nodes[id]
		nr := NodeRow{
			Loop:     n.Loop,
			Parent:   -1,
			Height:   n.Height,
			Depth:    n.Depth,
			Selected: n.Selected,
			Est:      n.Est,
			TLSTime:  n.TLSTime,
			BestTime: n.BestTime,
		}
		if n.Parent != nil {
			nr.Parent = n.Parent.Loop
		}
		row.Nodes = append(row.Nodes, nr)
	}
	row.Selected = an.SelectedLoopIDs()
	return row
}

// sortedKeys writes m's keys into the front of scratch, which must hold
// them all, and returns them sorted.
func sortedKeys[V any](scratch []int, m map[int]V) []int {
	keys := scratch[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// EncodeOutcomes maps EncodeOutcome over a sweep's outcome list.
func EncodeOutcomes(outs []trace.SweepOutcome) []OutcomeRow {
	rows := make([]OutcomeRow, len(outs))
	for i, o := range outs {
		rows[i] = EncodeOutcome(o)
	}
	return rows
}

// Canonical serializes outcome rows into the byte form compared by the
// sentinel determinism check and the cluster equivalence tests.
func Canonical(rows []OutcomeRow) ([]byte, error) {
	return json.Marshal(rows)
}

// PredictedSpeedup mirrors profile.Analysis.PredictedSpeedup for a
// canonical row.
func (r *OutcomeRow) PredictedSpeedup() float64 {
	if r.PredictedCycles == 0 {
		return 1
	}
	return float64(r.CleanCycles) / r.PredictedCycles
}

// LoopTable reconstructs the tracer's per-loop statistics table (without
// the extended PC bins' map identity; values are exact copies).
func (r *OutcomeRow) LoopTable() map[int]*core.LoopStats {
	out := make(map[int]*core.LoopStats, len(r.Loops))
	for _, lr := range r.Loops {
		s := &core.LoopStats{
			Loop:           lr.Loop,
			Cycles:         lr.Cycles,
			Threads:        lr.Threads,
			Entries:        lr.Entries,
			ArcCount:       lr.ArcCount,
			ArcLenSum:      lr.ArcLenSum,
			Overflows:      lr.Overflows,
			MaxLdLines:     lr.MaxLdLines,
			MaxStLines:     lr.MaxStLines,
			SkippedEntries: lr.SkippedEntries,
		}
		if len(lr.PCArcs) > 0 {
			s.PCArcs = make(map[int]*core.PCArcStats, len(lr.PCArcs))
			for _, a := range lr.PCArcs {
				s.PCArcs[a.PC] = &core.PCArcStats{Count: a.Count, LenSum: a.LenSum, MinLen: a.MinLen}
			}
		}
		out[lr.Loop] = s
	}
	return out
}

// SelectedEsts returns the Equation 1 estimates of the selected loops, in
// selection order.
func (r *OutcomeRow) SelectedEsts() []profile.Estimate {
	byLoop := make(map[int]profile.Estimate, len(r.Nodes))
	for _, n := range r.Nodes {
		byLoop[n.Loop] = n.Est
	}
	out := make([]profile.Estimate, 0, len(r.Selected))
	for _, id := range r.Selected {
		out = append(out, byLoop[id])
	}
	return out
}
