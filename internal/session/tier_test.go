package session

import (
	"strconv"
	"strings"
	"testing"
)

// fakeEpochs drives a TierRecord through profile observations with a
// fixed estimate, returning per-epoch promotability. No Session, no VM:
// the decision functions run on an explicit epoch counter.
func testThresholds() Thresholds {
	return Thresholds{
		PromoteStreak:    2,
		MinDwell:         2,
		Cooldown:         3,
		DemoteRatio:      0.8,
		MaxViolationRate: 0.5,
		Alpha:            0.5,
	}
}

func TestOscillatingSelectionNeverPromotes(t *testing.T) {
	th := testThresholds()
	r := &TierRecord{Loop: 1}
	for epoch := 1; epoch <= 20; epoch++ {
		selected := epoch%2 == 1 // in one epoch, out the next
		if r.observeProfile(selected, 2.0, 0.5, 10, th) {
			t.Fatalf("epoch %d: oscillating selection became promotable (streak %d)", epoch, r.SelectedStreak)
		}
	}
	if r.Promotions != 0 {
		t.Fatalf("promotions = %d, want 0", r.Promotions)
	}
}

func TestPromoteAfterStreak(t *testing.T) {
	th := testThresholds()
	r := &TierRecord{Loop: 3, Name: "main.x"}
	if r.observeProfile(true, 2.5, 0.4, 5, th) {
		t.Fatal("promotable after a single selected epoch with PromoteStreak=2")
	}
	if !r.observeProfile(true, 2.5, 0.4, 5, th) {
		t.Fatal("not promotable after two consecutive selected epochs")
	}
	tr := r.promote(2)
	if r.Tier != TierSpeculative || r.Promotions != 1 || r.Dwell != 0 {
		t.Fatalf("after promote: tier=%v promotions=%d dwell=%d", r.Tier, r.Promotions, r.Dwell)
	}
	if tr.To != "speculative" || tr.Epoch != 2 {
		t.Fatalf("transition = %+v", tr)
	}
	if !strings.Contains(tr.Reason, "2 consecutive") {
		t.Fatalf("reason %q does not name the streak", tr.Reason)
	}
}

// promoteAt runs a record straight through promotion so decay tests
// start from a speculative loop.
func promoteAt(t *testing.T, r *TierRecord, th Thresholds, est float64) {
	t.Helper()
	for i := 0; i < th.PromoteStreak; i++ {
		r.observeProfile(true, est, 0.5, 10, th)
	}
	if r.Tier != TierSequential {
		t.Fatal("setup: record already speculative")
	}
	r.promote(0)
}

func TestMinDwellDelaysDemotion(t *testing.T) {
	th := testThresholds()
	r := &TierRecord{Loop: 1}
	promoteAt(t, r, th, 2.0)

	// Observed speedup is terrible from the first speculative epoch, but
	// demotion must wait out MinDwell profile epochs in the tier.
	r.observeProfile(true, 2.0, 0.5, 10, th) // dwell 1
	if tr := r.observeSpeculation(1, 1.0, 0, 10, th); tr != nil {
		t.Fatalf("demoted at dwell 1 with MinDwell=2: %v", tr)
	}
	r.observeProfile(true, 2.0, 0.5, 10, th) // dwell 2
	tr := r.observeSpeculation(2, 1.0, 0, 10, th)
	if tr == nil {
		t.Fatal("not demoted once dwell reached MinDwell with ratio EWMA 0.5")
	}
	if tr.To != "sequential" || r.Cooldown != th.Cooldown || r.Demotions != 1 {
		t.Fatalf("after demotion: %+v, cooldown=%d demotions=%d", tr, r.Cooldown, r.Demotions)
	}
}

func TestCooldownBlocksRepromotion(t *testing.T) {
	th := testThresholds()
	r := &TierRecord{Loop: 2}
	promoteAt(t, r, th, 2.0)
	for e := 1; ; e++ {
		r.observeProfile(true, 2.0, 0.5, 10, th)
		if tr := r.observeSpeculation(e, 1.0, 0, 10, th); tr != nil {
			break
		}
		if e > 10 {
			t.Fatal("setup: loop never demoted")
		}
	}

	// The estimator still loves the loop every epoch; promotability must
	// stay off for exactly Cooldown epochs.
	promotableAt := -1
	for e := 1; e <= th.Cooldown+2; e++ {
		if r.observeProfile(true, 2.0, 0.5, 10, th) {
			promotableAt = e
			break
		}
	}
	if promotableAt != th.Cooldown+1 {
		t.Fatalf("promotable after %d post-demotion epochs, want %d (cooldown %d)",
			promotableAt, th.Cooldown+1, th.Cooldown)
	}
}

func TestEWMASmoothsSingleBadEpoch(t *testing.T) {
	th := testThresholds()
	th.Alpha = 0.25 // heavier smoothing for this scenario
	r := &TierRecord{Loop: 4}
	promoteAt(t, r, th, 2.0)

	// Healthy epochs: observed matches predicted.
	for e := 1; e <= 4; e++ {
		r.observeProfile(true, 2.0, 0.5, 10, th)
		if tr := r.observeSpeculation(e, 2.0, 0, 10, th); tr != nil {
			t.Fatalf("demoted during healthy epochs: %v", tr)
		}
	}
	// One outlier epoch at half the promised speedup: instantaneous ratio
	// 0.5 is far below DemoteRatio, but the EWMA (0.875) holds the tier.
	r.observeProfile(true, 2.0, 0.5, 10, th)
	if tr := r.observeSpeculation(5, 1.0, 0, 10, th); tr != nil {
		t.Fatalf("single outlier epoch demoted the loop: %v (EWMA %.4f)", tr, r.RatioEWMA)
	}
	// Sustained bad behaviour does demote.
	var demoted *Transition
	for e := 6; e <= 20 && demoted == nil; e++ {
		r.observeProfile(true, 2.0, 0.5, 10, th)
		demoted = r.observeSpeculation(e, 1.0, 0, 10, th)
	}
	if demoted == nil {
		t.Fatal("sustained observed/predicted 0.5 never demoted the loop")
	}
	if !strings.Contains(demoted.Reason, "observed/predicted") {
		t.Fatalf("reason %q does not name the ratio criterion", demoted.Reason)
	}
}

func TestViolationRateDemotes(t *testing.T) {
	th := testThresholds()
	r := &TierRecord{Loop: 5}
	promoteAt(t, r, th, 2.0)
	var demoted *Transition
	for e := 1; e <= 5 && demoted == nil; e++ {
		r.observeProfile(true, 2.0, 0.5, 10, th)
		// Nets a real speedup, but restarts nearly every thread.
		demoted = r.observeSpeculation(e, 1.9, 0.9, 10, th)
	}
	if demoted == nil {
		t.Fatal("violation-rate EWMA 0.9 never demoted the loop")
	}
	if !strings.Contains(demoted.Reason, "violation-rate") {
		t.Fatalf("reason %q does not name the violation criterion", demoted.Reason)
	}
}

// latticeEvent is one scripted epoch: the profile's selection verdict
// and, when the loop is speculative, the TLS execution result.
type latticeEvent struct {
	selected             bool
	observed, violations float64
}

// TestThreeTierLattice drives a TierRecord through scripted epochs and
// pins the whole transition sequence of the tier ladder, sequential →
// speculative, with cooldown gating re-promotion after a demotion.
func TestThreeTierLattice(t *testing.T) {
	sel := latticeEvent{selected: true}
	healthy := latticeEvent{selected: true, observed: 2.0}
	thrash := latticeEvent{selected: true, observed: 1.0}
	cases := []struct {
		name        string
		events      []latticeEvent
		wantTier    Tier
		transitions []string // "from->to@epoch"
	}{
		{
			name: "full ladder to speculative",
			// A streak of 2 promotes at epoch 2; observed speedup then
			// matches the estimate, so the loop holds its tier.
			events:   []latticeEvent{sel, sel, healthy, healthy},
			wantTier: TierSpeculative,
			transitions: []string{
				"sequential->speculative@2",
			},
		},
		{
			name: "cooldown blocks re-promotion for exactly Cooldown epochs",
			// Demoted at epoch 4 (MinDwell=2) with Cooldown=3: epochs 5-7
			// burn the cooldown (streak rebuilds meanwhile), epoch 8
			// re-promotes.
			events:   []latticeEvent{sel, sel, thrash, thrash, sel, sel, sel, sel},
			wantTier: TierSpeculative,
			transitions: []string{
				"sequential->speculative@2",
				"speculative->sequential@4",
				"sequential->speculative@8",
			},
		},
	}
	th := testThresholds()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &TierRecord{Loop: 1, Name: "main.k"}
			var got []string
			for i, ev := range tc.events {
				epoch := i + 1
				promotable := r.observeProfile(ev.selected, 2.0, 0.5, 10, th)
				if r.Tier == TierSpeculative && ev.observed > 0 {
					if tr := r.observeSpeculation(epoch, ev.observed, ev.violations, 10, th); tr != nil {
						got = append(got, fmtTransition(*tr))
					}
				}
				// Re-check eligibility on the live record, as the session's
				// promotion pass does: a demotion this epoch zeroed the
				// streak and armed the cooldown.
				if promotable && r.Tier == TierSequential &&
					r.Cooldown == 0 && r.SelectedStreak >= th.PromoteStreak {
					got = append(got, fmtTransition(r.promote(epoch)))
				}
			}
			if r.Tier != tc.wantTier {
				t.Errorf("final tier = %v, want %v", r.Tier, tc.wantTier)
			}
			if len(got) != len(tc.transitions) {
				t.Fatalf("transitions = %v, want %v", got, tc.transitions)
			}
			for i := range got {
				if got[i] != tc.transitions[i] {
					t.Errorf("transition %d = %q, want %q", i, got[i], tc.transitions[i])
				}
			}
		})
	}
}

func fmtTransition(tr Transition) string {
	return tr.From + "->" + tr.To + "@" + strconv.Itoa(tr.Epoch)
}

func TestThresholdsWithDefaults(t *testing.T) {
	got := Thresholds{DemoteRatio: 0.9}.withDefaults()
	want := DefaultThresholds()
	want.DemoteRatio = 0.9
	if got != want {
		t.Fatalf("withDefaults = %+v, want %+v", got, want)
	}
	if th := (Thresholds{}).withDefaults(); th != DefaultThresholds() {
		t.Fatalf("zero thresholds = %+v, want defaults", th)
	}
}
