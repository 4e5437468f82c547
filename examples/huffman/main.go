// Figure 3 walkthrough: the paper's own running example. A Huffman
// decoder's outer loop consumes a data-dependent number of input bits per
// iteration, so in_p carries the critical inter-thread dependency arc.
// This example shows the raw comparator-bank counters, the derived values
// of Figure 3, the Equation 1 estimates, and the Table 3 conclusion that
// the outer loop is the better STL — then validates the prediction with
// the TLS execution simulation.
//
//	go run ./examples/huffman
package main

import (
	"fmt"
	"log"

	"jrpm"
	"jrpm/internal/core"
	"jrpm/internal/profile"
	"jrpm/internal/workloads"
)

func main() {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		log.Fatal(err)
	}
	in := w.NewInput(1)

	opts := jrpm.DefaultOptions()
	opts.Tracer.Extended = true // per-load-PC arc binning (Figure 8b)
	// One run of the program: profile, select, recompile, speculate.
	spec, err := jrpm.Run(w.Source, in, opts)
	if err != nil {
		log.Fatal(err)
	}
	an := spec.Profile.Analysis
	outer := an.Roots[0]
	inner := outer.Children[0]

	fmt.Println("=== Figure 3: load dependency analysis of the Huffman nest ===")
	for _, n := range []*profile.Node{outer, inner} {
		s := n.Stats
		d := profile.Derive(s)
		fmt.Printf("\n%s (dynamic depth %d)\n", an.LoopName(n.Loop), n.Depth)
		fmt.Printf("  raw counters:   cycles=%d  entries=%d  threads=%d\n", s.Cycles, s.Entries, s.Threads)
		fmt.Printf("  critical arcs:  to t-1: count=%d sumLen=%d   to <t-1: count=%d sumLen=%d\n",
			s.ArcCount[core.BinPrev], s.ArcLenSum[core.BinPrev],
			s.ArcCount[core.BinEarlier], s.ArcLenSum[core.BinEarlier])
		fmt.Printf("  derived:        thread size=%.1f  iters/entry=%.1f\n", d.AvgThreadSize, d.AvgItersPerEntry)
		fmt.Printf("                  arc freq(t-1)=%.2f  avg arc len(t-1)=%.1f  overflow freq=%.3f\n",
			d.ArcFreq[core.BinPrev], d.AvgArcLen[core.BinPrev], d.OverflowFreq)
		fmt.Printf("  Equation 1:     estimated speedup %.2fx\n", n.Est.Speedup)
	}

	fmt.Println("\n=== Extended tracer (§6.3): critical arcs binned by load PC ===")
	if pcs := outer.Stats.PCArcs; len(pcs) > 0 {
		for pc, pa := range pcs {
			fmt.Printf("  load pc %-5d count=%-6d avg arc=%.1f  (this is the in_p read)\n",
				pc, pa.Count, float64(pa.LenSum)/float64(pa.Count))
		}
	}

	fmt.Println("\n=== Table 3: Equation 2 picks the decomposition ===")
	fmt.Printf("  outer: %d cycles / %.2fx = %.0f speculative cycles\n",
		outer.Stats.Cycles, outer.Est.Speedup, outer.TLSTime)
	innerTime := inner.TLSTime
	serial := float64(outer.Stats.Cycles-inner.Stats.Cycles) * an.Scale
	fmt.Printf("  inner: %.0f speculative cycles + %.0f serial = %.0f\n",
		innerTime, serial, innerTime+serial)
	if outer.Selected {
		fmt.Println("  -> outer loop selected (matches the paper)")
	} else {
		fmt.Println("  -> inner loop selected (differs from the paper!)")
	}

	fmt.Println("\n=== Speculative execution on the simulated Hydra ===")
	for loop, r := range spec.Loops {
		fmt.Printf("  %s: %d threads, %d violations, %d comm-stall cycles -> %.2fx\n",
			an.LoopName(loop), r.Threads, r.Violations, r.CommStalls, r.Speedup)
	}
	fmt.Printf("  predicted program speedup %.2fx, actual %.2fx\n",
		an.PredictedSpeedup(), spec.ActualSpeedup)
}
