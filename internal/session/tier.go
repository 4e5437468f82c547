// Package session closes the loop the offline stages leave open: a
// long-lived program session that continuously drives
//
//	profile under sampled traffic → STL selection → recompilation
//	→ speculative re-execution → re-profiling of the speculation
//	→ promotion/demotion of loops
//
// exactly the hardware-profiler-driven cycle that defines Jrpm (and that
// J-Parallelio reprises for modern pipelines). Each annotated loop
// carries a tier record: the Equation 1 prediction, the TLS-observed
// speedup, EWMAs of the observed/predicted ratio and the RAW-restart
// rate, and sampler evidence. Tiering decisions apply explicit
// promotion/decay thresholds with hysteresis — selection streaks before
// promotion, a minimum dwell before demotion, a cooldown after demotion
// — so a loop oscillating around a threshold cannot flap, and every
// transition is recorded with the reason that triggered it.
//
// Determinism is a design constraint, not an accident: with a fixed
// input (or a seeded traffic generator) and fixed thresholds, the tier
// transition sequence is bit-identical across runs. That is what makes
// the adaptive layer safe to evolve — the golden-file tests pin whole
// transition logs, so any behavioural drift in the policy shows up as a
// diff.
package session

import "fmt"

// Tier is an annotated loop's execution tier within a session.
type Tier uint8

const (
	// TierSequential runs the loop as ordinary sequential code (the
	// default, and where demoted loops return to).
	TierSequential Tier = iota
	// TierSpeculative runs the loop as speculative threads under the
	// recompiled decomposition.
	TierSpeculative
)

func (t Tier) String() string {
	switch t {
	case TierSequential:
		return "sequential"
	case TierSpeculative:
		return "speculative"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// Thresholds are the promotion/decay policy knobs. The zero value of any
// field is replaced by the DefaultThresholds value, so callers can
// override single knobs.
type Thresholds struct {
	// PromoteStreak is how many consecutive epochs Equation 2 must select
	// a loop before it is promoted — one noisy selection does not trigger
	// a recompilation.
	PromoteStreak int `json:"promote_streak,omitempty"`
	// MinDwell is how many epochs a loop must dwell in the speculative
	// tier before demotion is considered; together with PromoteStreak it
	// is the hysteresis band that stops tier flapping.
	MinDwell int `json:"min_dwell,omitempty"`
	// Cooldown is how many epochs a demoted loop must wait before it is
	// eligible for re-promotion, however good its estimates look.
	Cooldown int `json:"cooldown,omitempty"`
	// DemoteRatio demotes a speculative loop whose EWMA of
	// observed/predicted speedup falls below it: the promised speedup did
	// not materialize.
	DemoteRatio float64 `json:"demote_ratio,omitempty"`
	// MaxViolationRate demotes a speculative loop whose EWMA of RAW
	// violations per thread exceeds it, even when it still nets a
	// speedup — restart-thrashing wastes the CPUs it occupies.
	MaxViolationRate float64 `json:"max_violation_rate,omitempty"`
	// Alpha is the EWMA weight of the newest epoch (0 < Alpha <= 1).
	Alpha float64 `json:"alpha,omitempty"`
}

// DefaultThresholds is the session default policy.
func DefaultThresholds() Thresholds {
	return Thresholds{
		PromoteStreak:    2,
		MinDwell:         2,
		Cooldown:         3,
		DemoteRatio:      0.8,
		MaxViolationRate: 0.5,
		Alpha:            0.5,
	}
}

// withDefaults substitutes defaults for unset fields independently.
func (t Thresholds) withDefaults() Thresholds {
	d := DefaultThresholds()
	if t.PromoteStreak <= 0 {
		t.PromoteStreak = d.PromoteStreak
	}
	if t.MinDwell <= 0 {
		t.MinDwell = d.MinDwell
	}
	if t.Cooldown <= 0 {
		t.Cooldown = d.Cooldown
	}
	if t.DemoteRatio <= 0 {
		t.DemoteRatio = d.DemoteRatio
	}
	if t.MaxViolationRate <= 0 {
		t.MaxViolationRate = d.MaxViolationRate
	}
	if t.Alpha <= 0 || t.Alpha > 1 {
		t.Alpha = d.Alpha
	}
	return t
}

// TierRecord is the per-loop adaptive state a session carries across
// epochs.
type TierRecord struct {
	Loop int    `json:"loop"`
	Name string `json:"name"`
	Tier Tier   `json:"-"`

	// Profiling view, refreshed every epoch the loop is observed.
	EstSpeedup float64 `json:"est_speedup"` // latest Equation 1 prediction
	Coverage   float64 `json:"coverage"`    // latest cycle share
	Samples    int64   `json:"samples"`     // cumulative sampler hits (cum)

	// Speculative view, updated on epochs the loop executed under TLS.
	ObservedSpeedup float64 `json:"observed_speedup,omitempty"` // latest TLS result
	RatioEWMA       float64 `json:"ratio_ewma,omitempty"`       // EWMA observed/predicted
	ViolationEWMA   float64 `json:"violation_ewma,omitempty"`   // EWMA violations/thread
	Threads         int64   `json:"threads,omitempty"`          // cumulative TLS threads
	SpecEpochs      int     `json:"spec_epochs,omitempty"`      // epochs executed speculatively
	PlanSummary     string  `json:"plan,omitempty"`             // recompilation classes

	// Hysteresis bookkeeping, all in whole epochs.
	SelectedStreak int `json:"selected_streak"`
	Dwell          int `json:"dwell"`
	Cooldown       int `json:"cooldown,omitempty"`
	Promotions     int `json:"promotions,omitempty"`
	Demotions      int `json:"demotions,omitempty"`
}

// Transition is one tier change, with the evidence that triggered it.
type Transition struct {
	Epoch     int     `json:"epoch"`
	Loop      int     `json:"loop"`
	Name      string  `json:"name"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	Reason    string  `json:"reason"`
	Predicted float64 `json:"predicted,omitempty"`
	Observed  float64 `json:"observed,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
}

// String renders the transition in the stable one-line form the golden
// transition logs pin. All floats are fixed-precision so the log is
// byte-reproducible.
func (t Transition) String() string {
	return fmt.Sprintf("epoch=%d loop=L%d(%s) %s->%s reason=%q est=%.4f obs=%.4f ratio=%.4f",
		t.Epoch, t.Loop, t.Name, t.From, t.To, t.Reason, t.Predicted, t.Observed, t.Ratio)
}

// observeProfile folds one profiling epoch into the record: the fresh
// Equation 1 estimate, coverage, sampler evidence, and the selection
// verdict. It advances the epoch-granularity clocks (dwell, cooldown,
// selection streak) and reports whether the loop is now promotion-
// eligible on hysteresis grounds — the session still has to clear the
// exclusivity check (no speculative ancestor/descendant) before calling
// promote. Pure bookkeeping: callable with a fake epoch clock in tests.
func (r *TierRecord) observeProfile(selected bool, est, coverage float64, samples int64, th Thresholds) (promotable bool) {
	r.EstSpeedup = est
	r.Coverage = coverage
	r.Samples += samples
	r.Dwell++
	coolingDown := r.Cooldown > 0
	if coolingDown {
		r.Cooldown--
	}
	if selected {
		r.SelectedStreak++
	} else {
		r.SelectedStreak = 0
	}
	return r.Tier == TierSequential &&
		r.SelectedStreak >= th.PromoteStreak &&
		!coolingDown
}

// promote moves the record into the speculative tier and returns the
// transition. The caller provides the epoch for the log.
func (r *TierRecord) promote(epoch int) Transition {
	tr := Transition{
		Epoch:     epoch,
		Loop:      r.Loop,
		Name:      r.Name,
		From:      r.Tier.String(),
		To:        TierSpeculative.String(),
		Reason:    fmt.Sprintf("selected %d consecutive epochs, est %.2fx", r.SelectedStreak, r.EstSpeedup),
		Predicted: r.EstSpeedup,
	}
	r.Tier = TierSpeculative
	r.Dwell = 0
	r.Promotions++
	// A fresh promotion starts with a clean speculative history: the
	// EWMAs describe the *current* decomposition's behaviour, not the one
	// demoted epochs ago.
	r.RatioEWMA = 0
	r.ViolationEWMA = 0
	r.SpecEpochs = 0
	return tr
}

// observeSpeculation folds one TLS execution epoch into the record and
// applies the decay policy: a speculative loop whose observed/predicted
// EWMA sinks below DemoteRatio, or whose violation-rate EWMA exceeds
// MaxViolationRate, is demoted — but only after MinDwell epochs in the
// tier, and with a Cooldown barring immediate re-promotion. Returns the
// demotion transition, or nil when the loop keeps its tier.
func (r *TierRecord) observeSpeculation(epoch int, observed, violationRate float64, threads int64, th Thresholds) *Transition {
	r.ObservedSpeedup = observed
	r.Threads += threads
	r.SpecEpochs++
	ratio := 0.0
	if r.EstSpeedup > 0 {
		ratio = observed / r.EstSpeedup
	}
	if r.SpecEpochs == 1 {
		r.RatioEWMA = ratio
		r.ViolationEWMA = violationRate
	} else {
		r.RatioEWMA += th.Alpha * (ratio - r.RatioEWMA)
		r.ViolationEWMA += th.Alpha * (violationRate - r.ViolationEWMA)
	}
	if r.Dwell < th.MinDwell {
		return nil // hysteresis: too fresh in the tier to judge
	}
	var reason string
	switch {
	case r.RatioEWMA < th.DemoteRatio:
		reason = fmt.Sprintf("observed/predicted EWMA %.4f < %.2f", r.RatioEWMA, th.DemoteRatio)
	case r.ViolationEWMA > th.MaxViolationRate:
		reason = fmt.Sprintf("violation-rate EWMA %.4f > %.2f", r.ViolationEWMA, th.MaxViolationRate)
	default:
		return nil
	}
	tr := Transition{
		Epoch:     epoch,
		Loop:      r.Loop,
		Name:      r.Name,
		From:      r.Tier.String(),
		To:        TierSequential.String(),
		Reason:    reason,
		Predicted: r.EstSpeedup,
		Observed:  observed,
		Ratio:     r.RatioEWMA,
	}
	r.Tier = TierSequential
	r.Dwell = 0
	r.Cooldown = th.Cooldown
	r.SelectedStreak = 0
	r.Demotions++
	return &tr
}
