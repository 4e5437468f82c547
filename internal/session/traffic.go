package session

import "jrpm"

// Traffic supplies the input for each profiling epoch. Epochs are
// numbered from 1; implementations must be deterministic in the epoch
// number — the same Traffic value asked for the same epoch returns the
// same input, regardless of call order — because session determinism
// (and the golden transition-log tests) rest on it. The VM copies bound
// arrays into its own memory, so one Input may be served for many
// epochs without the program's writes leaking between runs.
type Traffic func(epoch int) jrpm.Input

// FixedTraffic replays one input every epoch: the pure convergence
// setting, where all epoch-to-epoch movement comes from the tiering
// policy rather than the workload.
func FixedTraffic(in jrpm.Input) Traffic {
	return func(int) jrpm.Input { return in }
}

// rng is the xorshift* generator used across the repo wherever
// deterministic pseudo-randomness is needed (internal/workloads has the
// canonical copy).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// float returns a value in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// JitterSpan is the relative width of JitteredTraffic's scale band: each
// epoch's workload scale is drawn from base*[1-JitterSpan/2, 1+JitterSpan/2).
const JitterSpan = 0.3

// JitterMax bounds the scale JitteredTraffic draws around base: the
// draw's own expression at the top of its band, which no epoch's draw
// exceeds.
func JitterMax(base float64) float64 {
	return base * (1 - JitterSpan/2 + JitterSpan)
}

// JitteredTraffic models sampled production traffic: each epoch the
// workload is regenerated at a scale jittered around base, so loop trip
// counts and data shift between epochs the way live traffic does. The
// jitter is a pure hash of (seed, epoch) — no generator state is carried
// between epochs — so any epoch's input is reproducible in isolation.
func JitteredTraffic(newInput func(scale float64) jrpm.Input, base float64, seed uint64) Traffic {
	return func(epoch int) jrpm.Input {
		r := rng{s: seed ^ (uint64(epoch) * 0x9e3779b97f4a7c15)}
		if r.s == 0 {
			r.s = 0x9e3779b97f4a7c15
		}
		r.next() // decorrelate nearby (seed, epoch) pairs before drawing
		scale := base * (1 - JitterSpan/2 + JitterSpan*r.float())
		return newInput(scale)
	}
}
