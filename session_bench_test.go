// Session-loop overhead benchmarks: the adaptive loop's bookkeeping
// (tier records, hysteresis, transition log, spans) must stay in the
// noise next to the profiling and TLS simulation it schedules. CI pins
// the epoch/bare ratio at <= 1.05 and `cmd/benchtab -benchjson` turns
// the output into BENCH_session.json.
package jrpm_test

import (
	"context"
	"slices"
	"testing"

	"jrpm"
	"jrpm/internal/session"
	"jrpm/internal/workloads"
)

// BenchmarkSessionEpoch compares one bare pipeline round (Compiled.Run
// over the Equation 2 selection) against the same round driven by an
// adaptive session epoch, on a prewarmed Compiled. PromoteStreak 1 makes
// the single session epoch promote and speculate immediately, so both
// sub-benchmarks make the same single VM run plus the same TLS work, and
// the difference is the session machinery itself. The epoch side fails
// unless it promoted a loop to the speculative tier: a promotion there
// is what puts the loop in the set its Run selection returns, so
// without one the two sides would silently compare unequal work.
func BenchmarkSessionEpoch(b *testing.B) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		b.Fatal(err)
	}
	in := w.NewInput(benchScale)
	compiled, err := jrpm.Compile(w.Source, jrpm.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	// The session attaches the sampling profiler at its default period;
	// the bare round gets the same options so both sides run identical VM
	// configurations.
	opts := jrpm.DefaultOptions()
	opts.SamplePeriod = session.DefaultSamplePeriod

	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sr, err := compiled.Run(ctx, in, opts, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(sr.Profile.Analysis.Selected) == 0 {
				b.Fatal("no loops selected")
			}
		}
	})

	b.Run("epoch", func(b *testing.B) {
		th := session.DefaultThresholds()
		th.PromoteStreak = 1
		for i := 0; i < b.N; i++ {
			s, err := session.New(session.Config{
				Compiled:   compiled,
				Name:       "bench",
				Traffic:    session.FixedTraffic(in),
				Epochs:     1,
				Thresholds: th,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Run(ctx); err != nil {
				b.Fatal(err)
			}
			speculated := slices.ContainsFunc(s.View().Transitions, func(tr session.Transition) bool {
				return tr.To == session.TierSpeculative.String()
			})
			if !speculated {
				b.Fatal("session epoch made no ->speculative promotion, so it never speculated")
			}
		}
	})
}
