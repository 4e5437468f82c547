package tls

import (
	"jrpm/internal/hydra"
	"jrpm/internal/tir"
)

// SyncThreshold exposes syncThreshold to the reference simulator.
const SyncThreshold = syncThreshold

// SimulateAfter simulates b on the scratch that simulating a left
// behind, as the free list hands a sim from one Simulate call to the
// next.
func SimulateAfter(a []*Entry, cfgA hydra.Config, b []*Entry, cfgB hydra.Config) map[int]*Result {
	s := new(sim)
	s.run(a, cfgA)
	return s.run(b, cfgB)
}

// Reuse empties r as Release does and readies it for prog's selected
// loops as NewRecorder readies a released recorder, bypassing the free
// list so the test knows which recorder it gets.
func Reuse(r *Recorder, prog *tir.Program, selected []int) *Recorder {
	r.reset()
	r.init(prog, selected)
	return r
}
