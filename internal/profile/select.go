package profile

import (
	"fmt"
	"sort"

	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/tir"
)

// Node is one loop in the dynamic loop tree.
type Node struct {
	Loop     int // static loop id
	Stats    *core.LoopStats
	Est      Estimate
	Parent   *Node
	Children []*Node
	// Height is the dynamic height above the innermost loop (leaf = 1),
	// Depth the dynamic nesting depth (top level = 1).
	Height int
	Depth  int
	// Selection results.
	Selected bool
	TLSTime  float64 // predicted cycles if this loop is the active STL
	BestTime float64 // Equation 2 optimum for this subtree
}

// Coverage returns the fraction of total program cycles spent in the loop.
func (n *Node) Coverage(total int64) float64 {
	if total == 0 || n.Stats == nil {
		return 0
	}
	return float64(n.Stats.Cycles) / float64(total)
}

// Analysis is the full profile analysis of one program run.
type Analysis struct {
	Prog        *tir.Program
	Cfg         hydra.Config
	TotalCycles int64 // traced-run cycles (annotation overheads included)
	CleanCycles int64 // sequential cycles without tracing
	// Scale deflates traced cycle counts to clean-run units
	// (CleanCycles / TotalCycles): the tracer measures loop times on the
	// annotated run, but predictions are reported against the clean
	// sequential baseline.
	Scale float64
	Roots []*Node
	Nodes map[int]*Node // by static loop id
	// Selected holds the chosen decompositions, by descending coverage.
	Selected []*Node
	// PredictedCycles is the Equation 2 optimum for the whole program in
	// clean-run cycle units: selected loops at their estimated speculative
	// time, everything else serial.
	PredictedCycles float64
}

// PredictedSpeedup is the whole-program speedup Equation 2 promises.
func (a *Analysis) PredictedSpeedup() float64 {
	if a.PredictedCycles == 0 {
		return 1
	}
	return float64(a.CleanCycles) / a.PredictedCycles
}

// BuildTree turns the tracer's dynamic nesting edges and statistics table
// into a loop tree. A loop's primary parent is the one it was entered
// from most often; rare secondary parents are ignored (documented
// simplification — the runtime system has the same one-decomposition-
// at-a-time constraint). The nodes come from one array, and Roots and
// every Children list are windows of one array of node pointers.
func BuildTree(prog *tir.Program, tr *core.Tracer, tracedCycles, cleanCycles int64, cfg hydra.Config) *Analysis {
	stats := tr.Results()
	edges := tr.ParentEdges()
	a := &Analysis{
		Prog:        prog,
		Cfg:         cfg,
		TotalCycles: tracedCycles,
		CleanCycles: cleanCycles,
		Scale:       1,
		Nodes:       make(map[int]*Node, len(edges)),
	}
	if tracedCycles > 0 && cleanCycles > 0 {
		a.Scale = float64(cleanCycles) / float64(tracedCycles)
	}

	// Create nodes for every loop observed at runtime. ids holds the
	// sorted loop ids, then count: each node's child count by position,
	// and the number of roots at n.
	n := len(edges)
	ids := make([]int, 0, 2*n+1)
	for id := range edges {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	count := ids[n : 2*n+1]
	nodes := make([]Node, n)
	est := Estimator{Cfg: cfg}
	for i, id := range ids {
		nd := &nodes[i]
		nd.Loop = id
		if s, ok := stats[id]; ok {
			nd.Stats = s
			nd.Est = est.Estimate(s)
		}
		a.Nodes[id] = nd
	}
	// Wire each node to its primary parent, counting each list's length.
	for i := range nodes {
		nd := &nodes[i]
		bestParent, bestCount := -1, int64(-1)
		for p, c := range edges[nd.Loop] {
			if c > bestCount || (c == bestCount && p < bestParent) {
				bestParent, bestCount = p, c
			}
		}
		if bestParent >= 0 {
			if p := a.Nodes[bestParent]; p != nil && !wouldCycle(a, nd, p) {
				nd.Parent = p
				count[sort.SearchInts(ids, bestParent)]++
				continue
			}
		}
		count[n]++
	}
	// Every node is one root or one child: cut one array of n pointers
	// into the lists, then fill them in node order.
	kids := make([]*Node, n)
	at := count[n]
	if at > 0 {
		a.Roots = kids[:0:at]
	}
	for i := range nodes {
		if c := count[i]; c > 0 {
			nodes[i].Children = kids[at : at : at+c]
			at += c
		}
	}
	for i := range nodes {
		if nd := &nodes[i]; nd.Parent != nil {
			nd.Parent.Children = append(nd.Parent.Children, nd)
		} else {
			a.Roots = append(a.Roots, nd)
		}
	}
	for _, r := range a.Roots {
		annotateDepth(r, 1)
	}
	for _, r := range a.Roots {
		annotateHeight(r)
	}
	return a
}

func wouldCycle(a *Analysis, child, parent *Node) bool {
	for p := parent; p != nil; p = p.Parent {
		if p == child {
			return true
		}
	}
	return false
}

func annotateDepth(n *Node, d int) {
	n.Depth = d
	for _, c := range n.Children {
		annotateDepth(c, d+1)
	}
}

func annotateHeight(n *Node) int {
	h := 0
	for _, c := range n.Children {
		if ch := annotateHeight(c); ch > h {
			h = ch
		}
	}
	n.Height = h + 1
	return n.Height
}

// SelectOptions tunes STL selection.
type SelectOptions struct {
	// MinSpeedup is the minimum estimated speedup for a loop to be worth
	// recompiling speculatively.
	MinSpeedup float64
	// MinThreads is the observation floor: loops with fewer traced
	// threads are not trusted.
	MinThreads int64
	// ReportCoverage is the minimum coverage for a selected loop to be
	// listed in reports (the paper's ">0.5%" cutoff for Table 6).
	ReportCoverage float64
}

// DefaultSelectOptions mirrors the paper's setup.
func DefaultSelectOptions() SelectOptions {
	return SelectOptions{MinSpeedup: 1.02, MinThreads: 2, ReportCoverage: 0.005}
}

// Select runs the Equation 2 dynamic program over the loop tree:
//
//	best(L) = min( time(L)/speedup(L),  Σ_children best(C) + serial(L) )
//
// Only one decomposition can be active at a time, so selecting a loop
// excludes its ancestors and descendants; this is exactly the exclusivity
// the recurrence encodes. Selected loops are recorded on the nodes and in
// a.Selected (descending coverage).
func (a *Analysis) Select(opts SelectOptions) {
	var visit func(n *Node) float64
	visit = func(n *Node) float64 {
		childSum := 0.0
		childCycles := 0.0
		for _, c := range n.Children {
			childSum += visit(c)
			if c.Stats != nil {
				childCycles += float64(c.Stats.Cycles) * a.Scale
			}
		}
		if n.Stats == nil {
			n.BestTime = childSum
			return n.BestTime
		}
		cycles := float64(n.Stats.Cycles) * a.Scale
		serial := cycles - childCycles
		if serial < 0 {
			serial = 0
		}
		nested := childSum + serial
		n.TLSTime = cycles
		selectable := a.Prog.Loops[n.Loop].Candidate &&
			n.Stats.Threads >= opts.MinThreads &&
			n.Est.Speedup >= opts.MinSpeedup
		if selectable {
			n.TLSTime = cycles / n.Est.Speedup
		}
		if selectable && n.TLSTime < nested {
			n.Selected = true
			n.BestTime = n.TLSTime
		} else {
			n.Selected = false
			n.BestTime = nested
		}
		return n.BestTime
	}

	serialOutside := float64(a.CleanCycles)
	total := 0.0
	for _, r := range a.Roots {
		total += visit(r)
		if r.Stats != nil {
			serialOutside -= float64(r.Stats.Cycles) * a.Scale
		}
	}
	if serialOutside < 0 {
		serialOutside = 0
	}
	a.PredictedCycles = total + serialOutside

	// Clear Selected below a selected ancestor (the DP already never
	// selects both, but a selected node's descendants may carry stale
	// flags from a previous Select call) and gather the final set.
	a.Selected = nil
	var gather func(n *Node, blocked bool)
	gather = func(n *Node, blocked bool) {
		if blocked {
			n.Selected = false
		}
		if n.Selected {
			a.Selected = append(a.Selected, n)
			blocked = true
		}
		for _, c := range n.Children {
			gather(c, blocked)
		}
	}
	for _, r := range a.Roots {
		gather(r, false)
	}
	sort.Slice(a.Selected, func(i, j int) bool {
		return a.Selected[i].Stats.Cycles > a.Selected[j].Stats.Cycles
	})
}

// MaxDepth returns the deepest observed dynamic loop nesting.
func (a *Analysis) MaxDepth() int {
	max := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Depth > max {
			max = n.Depth
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range a.Roots {
		walk(r)
	}
	return max
}

// SelectedLoopIDs returns the chosen static loop ids.
func (a *Analysis) SelectedLoopIDs() []int {
	out := make([]int, len(a.Selected))
	for i, n := range a.Selected {
		out[i] = n.Loop
	}
	return out
}

// LoopName renders a human-readable label for a loop id.
func (a *Analysis) LoopName(id int) string {
	if id >= 0 && id < len(a.Prog.Loops) {
		return fmt.Sprintf("L%d(%s)", id, a.Prog.Loops[id].Name)
	}
	return fmt.Sprintf("L%d", id)
}
