package experiments_test

import (
	"strings"
	"sync"
	"testing"

	"jrpm"
	"jrpm/internal/experiments"
	"jrpm/internal/hydra"
)

// The suite is expensive (26 full pipeline runs), so the tests share one.
var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func sharedSuite(t *testing.T) *experiments.Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(0.35)
		if _, err := suite.RunAll(); err != nil {
			t.Fatalf("suite: %v", err)
		}
	})
	if suite == nil {
		t.Skip("suite failed to build")
	}
	return suite
}

// TestTable3OuterLoopWins pins the paper's Table 3 conclusion.
func TestTable3OuterLoopWins(t *testing.T) {
	d, text, err := experiments.Table3(0.35)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OuterChosen {
		t.Fatalf("Equation 2 chose the inner decomposition:\n%s", text)
	}
	if d.OuterSpeedup <= d.InnerSpeedup {
		t.Fatalf("outer %.2fx should beat inner %.2fx", d.OuterSpeedup, d.InnerSpeedup)
	}
	if d.OuterTLS >= d.InnerPlusSerial {
		t.Fatalf("outer TLS time %.0f not better than inner+serial %.0f", d.OuterTLS, d.InnerPlusSerial)
	}
}

// TestTable5UnderOnePercent pins the hardware-cost headline.
func TestTable5UnderOnePercent(t *testing.T) {
	frac := hydra.TESTFraction(hydra.DefaultConfig())
	if frac >= 0.01 {
		t.Fatalf("TEST consumes %.2f%% of the CMP, paper claims <1%%", 100*frac)
	}
	text := experiments.Table5(hydra.DefaultConfig())
	for _, want := range []string{"CPU + FP core", "2MB L2 cache", "Comparator bank"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 5 missing %q", want)
		}
	}
}

// TestTable6Shape: 26 rows with plausible characteristics.
func TestTable6Shape(t *testing.T) {
	rows, text, err := experiments.Table6(sharedSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 26 {
		t.Fatalf("%d rows, want 26", len(rows))
	}
	for _, r := range rows {
		if r.LoopCount < 1 {
			t.Errorf("%s: loop count %d", r.Name, r.LoopCount)
		}
		if r.SelectedLoops < 1 {
			t.Errorf("%s: no selected STL with report coverage", r.Name)
		}
		if r.SelectedLoops > 0 && (r.ThreadSize <= 0 || r.ThreadsPerEntry <= 0) {
			t.Errorf("%s: degenerate thread stats %+v", r.Name, r)
		}
	}
	if !strings.Contains(text, "Huffman") {
		t.Error("rendered table missing Huffman")
	}
}

// TestFigure6SlowdownBand: the paper's headline — profiling slows programs
// by only 3-25% with optimized annotations — must hold across the suite
// (we allow a little slack above 25% since our kernels are smaller than
// the full applications).
func TestFigure6SlowdownBand(t *testing.T) {
	rows, _, err := experiments.Figure6(sharedSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OptTotal < 0 || r.OptTotal > 0.32 {
			t.Errorf("%s: optimized slowdown %.1f%% outside the 3-25%% band", r.Name, 100*r.OptTotal)
		}
		if r.OptTotal > r.BaseTotal+1e-9 {
			t.Errorf("%s: optimized (%.3f) slower than base (%.3f)", r.Name, r.OptTotal, r.BaseTotal)
		}
		if r.BaseMarkers < 0 || r.OptMarkers < 0 || r.BaseLocals < -1e-9 || r.OptLocals < -1e-9 {
			t.Errorf("%s: negative overhead component: %+v", r.Name, r)
		}
	}
}

// TestFigure9Underestimates: TEST's two-bin accumulation must
// underestimate the available parallelism once chains break every n-th
// iteration.
func TestFigure9Underestimates(t *testing.T) {
	rows, _, err := experiments.Figure9(0.35)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.N < 4 {
			continue // n=2 writes break every chain; nothing to miss
		}
		if r.ArcFreqPrev < 0.4 {
			t.Errorf("n=%d: arc freq %.2f, expected the high count the paper describes", r.N, r.ArcFreqPrev)
		}
		if r.EstSpeedup > r.IdealSpeedup {
			t.Errorf("n=%d: TEST estimate %.2f exceeds available %.2f", r.N, r.EstSpeedup, r.IdealSpeedup)
		}
	}
}

// TestFigure10Composition: coverage fractions are sane and predicted
// normalized times lie in (0, 1].
func TestFigure10Composition(t *testing.T) {
	rows, _, err := experiments.Figure10(sharedSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PredictedNorm <= 0 || r.PredictedNorm > 1.01 {
			t.Errorf("%s: predicted normalized time %.3f", r.Name, r.PredictedNorm)
		}
		total := r.SerialFrac
		for _, b := range r.STLs {
			if b.Coverage < 0 || b.Coverage > 1.01 {
				t.Errorf("%s: STL coverage %.3f", r.Name, b.Coverage)
			}
			total += b.Coverage
		}
		if total < 0.95 || total > 1.05 {
			t.Errorf("%s: coverage + serial = %.3f, want ~1", r.Name, total)
		}
	}
}

// TestFigure11PredictionQuality is the reproduction's core claim, matching
// the paper's "our analysis does a good job of predicting speculative
// performance": estimated and simulated times must track closely for most
// benchmarks, with bounded disparity everywhere.
func TestFigure11PredictionQuality(t *testing.T) {
	rows, text, err := experiments.Figure11(sharedSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	close, far := 0, 0
	for _, r := range rows {
		ratio := r.ActualNorm / r.PredictedNorm
		switch {
		case ratio > 0.7 && ratio < 1.45:
			close++
		case ratio > 0.4 && ratio < 2.5:
			far++
		default:
			t.Errorf("%s: actual/predicted = %.2f — out of any plausible band\n%s", r.Name, ratio, text)
		}
		if r.ActualNorm <= 0 || r.ActualNorm > 1.3 {
			t.Errorf("%s: actual normalized time %.3f", r.Name, r.ActualNorm)
		}
	}
	if close < 20 {
		t.Errorf("only %d/26 benchmarks predict within 45%%; the paper's Figure 11 tracks much closer", close)
	}
}

// TestSoftwareSlowdownDwarfsHardware reproduces the section 5 motivation.
func TestSoftwareSlowdownDwarfsHardware(t *testing.T) {
	rows, _, err := experiments.SoftwareSlowdown(sharedSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	var meanSW float64
	for _, r := range rows {
		if r.Software < 25*r.Hardware {
			t.Errorf("%s: software %.1fx vs hardware %.2fx — not the paper's contrast", r.Name, r.Software, r.Hardware)
		}
		meanSW += r.Software
	}
	meanSW /= float64(len(rows))
	if meanSW < 60 {
		t.Errorf("mean software slowdown %.1fx; the paper reports >100x", meanSW)
	}
}

// TestStaticTablesRender covers the configuration-only tables.
func TestStaticTablesRender(t *testing.T) {
	cfg := jrpm.DefaultOptions().Cfg
	if !strings.Contains(experiments.Table1(cfg), "512 lines") {
		t.Error("Table 1 missing the 512-line load buffer")
	}
	if !strings.Contains(experiments.Table2(cfg), "Store-load communication") {
		t.Error("Table 2 missing the communication row")
	}
	if !strings.Contains(experiments.Table4(), "sloop") {
		t.Error("Table 4 missing sloop")
	}
}

// TestLadderHonoursOptimize: the Figure 6 ladder compiles through
// jrpm.Compile with the suite's optimizer setting, so its full-annotation
// rung runs exactly the program the profile traced.
func TestLadderHonoursOptimize(t *testing.T) {
	traced := map[bool]int64{}
	for _, optimize := range []bool{false, true} {
		s := experiments.NewSuite(0.25)
		s.Opts.Optimize = optimize
		r, err := s.Run("Huffman")
		if err != nil {
			t.Fatal(err)
		}
		if r.FullCycles != r.Profile.TracedCycles {
			t.Errorf("optimize=%v: full-annotation rung %d cycles, profiled run %d", optimize, r.FullCycles, r.Profile.TracedCycles)
		}
		traced[optimize] = r.Profile.TracedCycles
	}
	if traced[false] == traced[true] {
		t.Fatalf("the optimizer leaves Huffman's traced cycles at %d; pick a kernel it changes", traced[false])
	}
}
