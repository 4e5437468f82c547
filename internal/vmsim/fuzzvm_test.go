package vmsim_test

import (
	"fmt"
	"testing"

	"jrpm/internal/corpus"
	"jrpm/internal/tir"
)

// fuzzMaxSteps keeps individual fuzz executions short; the bound itself
// is part of the compared behavior.
const fuzzMaxSteps = 150000

// fuzzCompile guards the frontend: this fuzz target hunts for engine
// divergence, not parser crashes, so a frontend panic on garbage input
// is reported as an ordinary error and the input is skipped.
func fuzzCompile(src string) (clean, ann *tir.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			clean, ann, err = nil, nil, fmt.Errorf("frontend panic: %v", r)
		}
	}()
	return compilePair(src)
}

// FuzzVMDiff feeds arbitrary JR sources that survive the frontend
// through both execution engines and requires bit-identical behavior:
// same events, output, heap, cycles, counters, trace bytes, faults and
// STL selections. Seeded with the checked-in corpus, the generated
// corpus's stratified seeds (every dependence kind and distance regime,
// shallow and deep nests, with calls and branch-gated bodies), and
// statement-soup programs.
func FuzzVMDiff(f *testing.F) {
	for _, src := range corpusSources(f) {
		f.Add(src)
	}
	for _, p := range corpus.FuzzSeeds() {
		f.Add(p.Source)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		src, _ := corpus.Soup(seed)
		f.Add(src)
	}
	f.Add("func main() { print(1); }")
	f.Add(runawaySrc)
	f.Add(wrapSrc)
	f.Add("global a: int[];\nfunc main() { var i: int = 0; while (i < len(a)) { a[i] = a[i] + i; i++; } }")
	f.Fuzz(func(t *testing.T, src string) {
		clean, ann, err := fuzzCompile(src)
		if err != nil {
			t.Skip()
		}
		diffPrograms(t, clean, ann, autoInput(ann), fuzzMaxSteps)
	})
}
