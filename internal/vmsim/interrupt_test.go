package vmsim_test

import (
	"bytes"
	"errors"
	"testing"

	"jrpm/internal/lang"
	"jrpm/internal/vmsim"
	"jrpm/internal/vmsim/refvm"
)

// callChainSrc performs ~200 calls but only a few thousand total steps,
// so the masked per-step interrupt check (every 8192 steps) never
// fires. Only the unthrottled poll at call sites can observe the
// interrupt before the program completes.
const callChainSrc = `
func leaf(x: int): int {
	return x + 1;
}

func main() {
	var i: int = 0;
	var s: int = 0;
	while (i < 200) {
		s = leaf(s);
		i++;
	}
	print(s);
}
`

// TestInterruptAtCallSites is the regression test for the
// interrupt-latency fix: a pre-set interrupt must stop a call-heavy
// program even when it finishes in fewer steps than the masked check
// interval, on both engines.
func TestInterruptAtCallSites(t *testing.T) {
	prog, err := lang.Compile(callChainSrc)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: without an interrupt the program completes quickly,
	// i.e. well under the 8192-step masked check interval per call.
	vm := vmsim.New(prog)
	vm.Out = &bytes.Buffer{}
	if err := vm.Run("main"); err != nil {
		t.Fatalf("uninterrupted run failed: %v", err)
	}

	t.Run("fast", func(t *testing.T) {
		vm := vmsim.New(prog)
		vm.Out = &bytes.Buffer{}
		vm.Interrupt()
		err := vm.Run("main")
		if !errors.Is(err, vmsim.ErrInterrupted) {
			t.Fatalf("want ErrInterrupted, got %v", err)
		}
	})
	t.Run("ref", func(t *testing.T) {
		vm := refvm.New(prog)
		vm.Out = &bytes.Buffer{}
		vm.Interrupt()
		err := vm.Run("main")
		if !errors.Is(err, vmsim.ErrInterrupted) {
			t.Fatalf("want ErrInterrupted, got %v", err)
		}
	})
}
