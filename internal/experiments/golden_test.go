package experiments_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"jrpm/internal/experiments"
	"jrpm/internal/hydra"
)

// The rendered tables and figures are the repository's user-facing
// reproduction of the paper's results: any drift in the pipeline —
// compiler, annotator, either VM engine, tracer, comparator model or
// selection — shows up here as a diff against the checked-in snapshot.
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGolden -update

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden snapshot.\n--- want\n%s\n--- got\n%s\nRe-run with -update if the change is intentional.", name, want, got)
	}
}

// TestGoldenStatic snapshots the outputs that depend only on the
// simulated-hardware configuration, not on any program run.
func TestGoldenStatic(t *testing.T) {
	cfg := hydra.DefaultConfig()
	checkGolden(t, "table1", experiments.Table1(cfg))
	checkGolden(t, "table2", experiments.Table2(cfg))
	checkGolden(t, "table4", experiments.Table4())
	checkGolden(t, "table5", experiments.Table5(cfg))
}

// TestGoldenTable3 snapshots the Huffman decomposition study at the
// shared test scale.
func TestGoldenTable3(t *testing.T) {
	_, text, err := experiments.Table3(0.35)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table3", text)
}

// TestGoldenFigure9 snapshots the estimate-vs-simulation comparison.
func TestGoldenFigure9(t *testing.T) {
	_, text, err := experiments.Figure9(0.35)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure9", text)
}

// TestGoldenSuite snapshots every rendering derived from the shared
// full-suite run.
func TestGoldenSuite(t *testing.T) {
	s := sharedSuite(t)
	for _, c := range []struct {
		name   string
		render func(*experiments.Suite) (string, error)
	}{
		{"table6", func(s *experiments.Suite) (string, error) {
			_, text, err := experiments.Table6(s)
			return text, err
		}},
		{"figure6", func(s *experiments.Suite) (string, error) {
			_, text, err := experiments.Figure6(s)
			return text, err
		}},
		{"figure10", func(s *experiments.Suite) (string, error) {
			_, text, err := experiments.Figure10(s)
			return text, err
		}},
		{"figure11", func(s *experiments.Suite) (string, error) {
			_, text, err := experiments.Figure11(s)
			return text, err
		}},
		{"software_slowdown", func(s *experiments.Suite) (string, error) {
			_, text, err := experiments.SoftwareSlowdown(s)
			return text, err
		}},
	} {
		text, err := c.render(s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkGolden(t, c.name, text)
	}
}

// TestGoldenMethodCallReturn snapshots the method-call-return analysis,
// the one consumer of call-boundary events.
func TestGoldenMethodCallReturn(t *testing.T) {
	_, text, err := experiments.MethodCallReturn(1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mcr", text)
}

// TestGoldenAblateBins snapshots the two-bin versus exact-distance
// comparison, whose oracle consumes a replayed recording.
func TestGoldenAblateBins(t *testing.T) {
	_, text, err := experiments.AblateBins(1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablate_bins", text)
}
