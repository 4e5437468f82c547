package vmsim

import "testing"

// TestPollShiftMatchesInterpreter pins the interpreter's poll window:
// interruptMask must be exactly the low interruptShift bits, or the
// per-step poll (steps&interruptMask) and the fused superinstructions'
// window check (steps>>interruptShift) would disagree on where poll
// boundaries fall, and interrupts and sampler ticks would land on
// different instructions than in the reference engine.
func TestPollShiftMatchesInterpreter(t *testing.T) {
	if interruptMask != 1<<interruptShift-1 {
		t.Fatalf("interruptMask = %#x is not 2^%d-1", interruptMask, interruptShift)
	}
}
