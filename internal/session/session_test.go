package session

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jrpm"
	"jrpm/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// bitOpsSession builds the canonical demotion scenario: BitOps at scale
// 0.35 under fixed traffic. Its inner loop L1 carries a strong Equation 1
// estimate (~3.4x) but its fine-grained threads deliver far less under
// TLS (~2.1x, ratio ~0.62) — the paper's own point that predictions are
// estimates and the runtime must watch what it actually gets.
func bitOpsSession(t testing.TB, epochs int) *Session {
	t.Helper()
	w, err := workloads.ByName("BitOps")
	if err != nil {
		t.Fatal(err)
	}
	c, err := jrpm.Compile(w.Source, jrpm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Compiled:     c,
		Name:         "BitOps",
		Traffic:      FixedTraffic(w.NewInput(0.35)),
		Epochs:       epochs,
		SamplePeriod: 8192,
		// Explicit thresholds: the golden log pins policy behaviour, so it
		// must not shift when DefaultThresholds is retuned.
		Thresholds: Thresholds{
			PromoteStreak:    2,
			MinDwell:         2,
			Cooldown:         3,
			DemoteRatio:      0.8,
			MaxViolationRate: 0.5,
			Alpha:            0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ID = "s00000001"
	return s
}

// TestTransitionLogGolden pins the full tier-transition sequence of a
// BitOps session byte-for-byte. Regenerate with
//
//	go test ./internal/session -run TestTransitionLogGolden -update
func TestTransitionLogGolden(t *testing.T) {
	s := bitOpsSession(t, 8)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	got := v.TransitionLog()

	path := filepath.Join("testdata", "transitions_bitops.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("transition log drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The scenario the subsystem exists for: at least one loop whose
	// observed speedup fell short of the prediction was demoted.
	demoted := false
	for _, tr := range v.Transitions {
		if tr.To == TierSequential.String() && tr.Observed < tr.Predicted {
			demoted = true
		}
	}
	if !demoted {
		t.Errorf("no under-performing loop was demoted; transitions:\n%s", got)
	}
	if v.State != string(StateDone) || v.Epoch != 8 {
		t.Errorf("state=%s epoch=%d, want done/8", v.State, v.Epoch)
	}
}

// TestSessionDeterminism runs the same configuration twice and demands
// bit-identical transition logs and tier tables.
func TestSessionDeterminism(t *testing.T) {
	run := func() View {
		s := bitOpsSession(t, 6)
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s.View()
	}
	a, b := run(), run()
	if al, bl := a.TransitionLog(), b.TransitionLog(); al != bl {
		t.Errorf("transition logs differ between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", al, bl)
	}
	if ar, br := a.Report(), b.Report(); ar != br {
		t.Errorf("reports differ between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", ar, br)
	}
}

func TestSessionCycleBudget(t *testing.T) {
	w, err := workloads.ByName("BitOps")
	if err != nil {
		t.Fatal(err)
	}
	c, err := jrpm.Compile(w.Source, jrpm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Compiled:    c,
		Name:        "BitOps",
		Traffic:     FixedTraffic(w.NewInput(0.2)),
		CycleBudget: 1, // exhausted after the first epoch
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ID = "s00000001"
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	if v.Epoch != 1 {
		t.Errorf("epoch = %d, want 1 (budget of 1 cycle admits exactly one epoch)", v.Epoch)
	}
	if !strings.Contains(v.Reason, "budget") {
		t.Errorf("reason %q does not mention the budget", v.Reason)
	}
	if v.CyclesUsed <= 0 {
		t.Errorf("cycles_used = %d, want > 0", v.CyclesUsed)
	}
}

func TestSessionReportShape(t *testing.T) {
	s := bitOpsSession(t, 4)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := s.View().Report()
	for _, want := range []string{"session s00000001 (BitOps)", "tiers:", "est ", "cycles used"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a Config without Compiled")
	}
	w, _ := workloads.ByName("BitOps")
	c, err := jrpm.Compile(w.Source, jrpm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Compiled: c}); err == nil {
		t.Error("New accepted a Config without Traffic")
	}
	s, err := New(Config{Compiled: c, Traffic: FixedTraffic(w.NewInput(0.2))})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Epochs != DefaultEpochs || s.cfg.SamplePeriod != DefaultSamplePeriod {
		t.Errorf("defaults not applied: epochs=%d period=%d", s.cfg.Epochs, s.cfg.SamplePeriod)
	}
}
