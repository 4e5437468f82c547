package loadgen

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jrpm/internal/corpus"
	"jrpm/internal/service"
)

func smokeSpec() *Spec {
	return &Spec{
		Name:    "test-smoke",
		Seed:    42,
		Arrival: ArrivalSpec{Process: "constant", RatePerSec: 60, DurationMs: 500},
		Mix:     MixSpec{Cold: 0.1, Warm: 0.6, Replay: 0.25, Session: 0.05},
		Workloads: []string{
			"Huffman", "BitOps", "IDEA",
		},
		Scale:   0.1,
		Tenants: []TenantWeight{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
	}
}

func TestScheduleDeterminism(t *testing.T) {
	spec := smokeSpec()
	s1, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Fatalf("same spec built twice, different fingerprints:\n%s\n%s",
			s1.Fingerprint(), s2.Fingerprint())
	}
	if len(s1.Ops) == 0 {
		t.Fatal("empty schedule")
	}
	other := smokeSpec()
	other.Seed = 43
	s3, err := Build(other)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Fingerprint() == s1.Fingerprint() {
		t.Fatal("different seeds produced the same fingerprint")
	}
}

func TestConstantArrivals(t *testing.T) {
	a := ArrivalSpec{Process: "constant", RatePerSec: 100, DurationMs: 1000}
	offs := a.offsets(newRNG(1))
	if len(offs) != 100 {
		t.Fatalf("constant 100/s for 1s: got %d arrivals, want 100", len(offs))
	}
	gap := 10 * time.Millisecond
	for i, off := range offs {
		if want := time.Duration(i) * gap; off != want {
			t.Fatalf("arrival %d at %v, want %v", i, off, want)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	a := ArrivalSpec{Process: "poisson", RatePerSec: 200, DurationMs: 5000}
	offs := a.offsets(newRNG(7))
	// Mean is 1000 arrivals, sd ≈ 32; 4 sd is a one-in-millions flake.
	if n := len(offs); n < 870 || n > 1130 {
		t.Fatalf("poisson 200/s for 5s: got %d arrivals, want ~1000", n)
	}
	limit := 5 * time.Second
	last := time.Duration(-1)
	for i, off := range offs {
		if off <= last {
			t.Fatalf("arrival %d at %v not after previous %v", i, off, last)
		}
		if off >= limit {
			t.Fatalf("arrival %d at %v past the %v window", i, off, limit)
		}
		last = off
	}
	// Same seed, same arrivals.
	again := a.offsets(newRNG(7))
	if len(again) != len(offs) {
		t.Fatalf("same seed: %d then %d arrivals", len(offs), len(again))
	}
	for i := range offs {
		if offs[i] != again[i] {
			t.Fatalf("same seed: arrival %d differs (%v vs %v)", i, offs[i], again[i])
		}
	}
}

func TestRampArrivals(t *testing.T) {
	a := ArrivalSpec{Process: "ramp", Steps: []RampStep{
		{RatePerSec: 10, DurationMs: 1000},
		{RatePerSec: 50, DurationMs: 1000},
	}}
	offs := a.offsets(newRNG(1))
	if len(offs) != 60 {
		t.Fatalf("ramp 10+50: got %d arrivals, want 60", len(offs))
	}
	var inFirst int
	for _, off := range offs {
		if off < time.Second {
			inFirst++
		}
	}
	if inFirst != 10 {
		t.Fatalf("%d arrivals in the first second, want 10", inFirst)
	}
}

func TestTenantPick(t *testing.T) {
	spec := smokeSpec()
	spec.Arrival = ArrivalSpec{Process: "constant", RatePerSec: 1000, DurationMs: 4000}
	sched, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, op := range sched.Ops {
		counts[op.Tenant]++
	}
	n := float64(len(sched.Ops))
	if fa := float64(counts["a"]) / n; math.Abs(fa-0.75) > 0.05 {
		t.Fatalf("tenant a got %.2f of the load, want ~0.75", fa)
	}
	if counts["a"]+counts["b"] != len(sched.Ops) {
		t.Fatalf("ops attributed to unknown tenants: %v", counts)
	}
}

func TestColdSourcesDistinct(t *testing.T) {
	spec := smokeSpec()
	spec.Mix = MixSpec{Cold: 1}
	sched, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, op := range sched.Ops[:10] {
		req, err := sched.JobRequest(op, "")
		if err != nil {
			t.Fatal(err)
		}
		if req.Source == "" {
			t.Fatalf("cold op %d has no inline source", op.Index)
		}
		if prev, dup := seen[req.Source]; dup {
			t.Fatalf("cold ops %d and %d share a source — cache would hit", prev, op.Index)
		}
		seen[req.Source] = op.Index
	}
}

func TestRecorderPercentiles(t *testing.T) {
	rec := NewRecorder()
	// 1..1000 ms uniform: p50 ≈ 500ms, p99 ≈ 990ms.
	for i := 1; i <= 1000; i++ {
		rec.Record(OpWarm, ErrOK, time.Duration(i)*time.Millisecond)
	}
	rec.Record(OpWarm, ErrShed, 0)
	rec.Record(OpCold, ErrInternal, 0)
	rep := rec.Report()

	var warm *ClassReport
	for i := range rep.Classes {
		if rep.Classes[i].Class == OpWarm {
			warm = &rep.Classes[i]
		}
	}
	if warm == nil {
		t.Fatal("no warm row in report")
	}
	if warm.OKCount != 1000 || warm.Errors[ErrShed] != 1 || warm.Total != 1001 {
		t.Fatalf("warm counts: %+v", warm)
	}
	// The histogram has ~9% relative bucket width; allow 12%.
	within := func(got, want float64) bool { return math.Abs(got-want)/want < 0.12 }
	if !within(warm.P50Ms, 500) {
		t.Fatalf("p50 = %.1fms, want ~500ms", warm.P50Ms)
	}
	if !within(warm.P99Ms, 990) {
		t.Fatalf("p99 = %.1fms, want ~990ms", warm.P99Ms)
	}
	if warm.MaxMs != 1000 {
		t.Fatalf("max = %.1fms, want 1000ms", warm.MaxMs)
	}
	if rep.Overall.Total != 1002 || rep.Overall.Errors[ErrInternal] != 1 {
		t.Fatalf("overall: %+v", rep.Overall)
	}
	if !within(rep.Overall.P50Ms, 500) {
		t.Fatalf("overall p50 = %.1fms, want ~500ms", rep.Overall.P50Ms)
	}
}

func TestHdrHistExtremes(t *testing.T) {
	h := newHdrHist()
	h.observe(1 * time.Microsecond) // below min track
	h.observe(400 * time.Second)    // above max track
	if h.count != 2 {
		t.Fatalf("count = %d", h.count)
	}
	if q := h.quantile(0); q != 1*time.Microsecond {
		t.Fatalf("q0 = %v, want the observed min", q)
	}
	if q := h.quantile(1); q != 400*time.Second {
		t.Fatalf("q1 = %v, want the observed max", q)
	}
}

// serve starts a daemon API over a pool built from cfg for the test's
// length and returns a Remote driving it.
func serve(t *testing.T, cfg service.Config) *Remote {
	pool := service.NewPool(cfg)
	srv := httptest.NewServer(service.NewServer(pool).Handler())
	plat := NewRemote(srv.URL)
	t.Cleanup(func() {
		plat.Close()
		srv.Close()
		pool.Stop()
	})
	return plat
}

// TestRunInProcess is the end-to-end smoke: a short mixed-class run
// against a pool in this process, behind its HTTP API, must complete
// with zero internal errors and every scheduled request accounted for.
func TestRunInProcess(t *testing.T) {
	spec := smokeSpec()
	sched, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	plat := serve(t, service.Config{Workers: 4, QueueDepth: 256})

	res, err := Run(context.Background(), sched, plat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != sched.Fingerprint() {
		t.Fatal("result fingerprint does not match the schedule")
	}
	if res.Report.Overall.Total != int64(len(sched.Ops)) {
		t.Fatalf("recorded %d outcomes for %d scheduled ops",
			res.Report.Overall.Total, len(sched.Ops))
	}
	if n := res.Report.Overall.Errors[ErrInternal]; n != 0 {
		t.Fatalf("%d internal errors in a smoke run", n)
	}
	if n := res.Report.Overall.Errors[ErrReject]; n != 0 {
		t.Fatalf("%d rejects in a smoke run", n)
	}
	if res.Report.Overall.OKCount == 0 {
		t.Fatal("no successful requests")
	}
	rows := res.BenchRows()
	if _, ok := rows["Load/test-smoke/all"]; !ok {
		t.Fatalf("bench rows missing the overall key: %v", rows)
	}
}

// TestRunRemote drives the real HTTP server end to end, including the
// tenant header and the long-poll wait path.
func TestRunRemote(t *testing.T) {
	spec := smokeSpec()
	spec.Arrival.DurationMs = 300
	sched, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	plat := serve(t, service.Config{Workers: 4, QueueDepth: 256, LongPoll: 2 * time.Second})

	res, err := Run(context.Background(), sched, plat)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Report.Overall.Errors[ErrInternal]; n != 0 {
		t.Fatalf("%d internal errors against the HTTP server", n)
	}
	if res.Report.Overall.OKCount == 0 {
		t.Fatal("no successful requests over HTTP")
	}
}

// TestRemoteClassifies429 pins the shed classification: a daemon
// answering 429 must land in the shed class, not internal.
func TestRemoteClassifies429(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"quota exceeded"}`))
	}))
	defer srv.Close()

	spec := smokeSpec()
	sched, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	plat := NewRemote(srv.URL)
	defer plat.Close()
	out := plat.Do(context.Background(), sched, Op{Class: OpWarm, Kernel: "Huffman"}, "")
	if out.Class != ErrShed {
		t.Fatalf("429 classified as %s, want shed (err: %v)", out.Class, out.Err)
	}
}

// TestRemoteRejectsNonJSON pins the Content-Type guard: an HTML error
// page from a proxy must fail loudly, not as a decode error.
func TestRemoteRejectsNonJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.Write([]byte("<html>bad gateway</html>"))
	}))
	defer srv.Close()

	plat := NewRemote(srv.URL)
	defer plat.Close()
	if _, err := plat.api.Wait(context.Background(), "j00000001"); err == nil {
		t.Fatal("HTML response decoded without error")
	}
}

// writeCorpusManifest compiles a tiny corpus and writes its manifest,
// returning the path a Spec.Corpus field can point at.
func writeCorpusManifest(t *testing.T, size int) string {
	t.Helper()
	cs := corpus.SmokeSpec()
	cs.Size = size
	m, _, err := corpus.Compile(cs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCorpusBackedSchedule: a spec drawing its kernel pool from a
// corpus manifest builds a schedule whose every request carries the
// regenerated program inline — warm, cold, session, and the setup
// recording all submit source + inputs rather than a registry name.
func TestCorpusBackedSchedule(t *testing.T) {
	spec := &Spec{
		Name:    "corpus-sched",
		Seed:    9,
		Arrival: ArrivalSpec{Process: "constant", RatePerSec: 100, DurationMs: 400},
		Mix:     MixSpec{Cold: 0.2, Warm: 0.5, Replay: 0.2, Session: 0.1},
		Corpus:  writeCorpusManifest(t, 4),
	}
	sched, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Kernels) == 0 {
		t.Fatal("corpus-backed schedule touched no kernels")
	}
	for _, k := range sched.Kernels {
		if !strings.HasPrefix(k, "smoke-") {
			t.Fatalf("kernel %q is not a corpus program ID", k)
		}
		req := sched.PrepareRequest(k)
		if req.Source == "" || !req.Record || req.Workload != "" {
			t.Fatalf("prepare request for %s not inline-source recording: %+v", k, req)
		}
	}
	for _, op := range sched.Ops {
		switch op.Class {
		case OpWarm, OpCold:
			req, err := sched.JobRequest(op, "")
			if err != nil {
				t.Fatalf("op %d: %v", op.Index, err)
			}
			if req.Source == "" || req.Workload != "" {
				t.Fatalf("%s op %d did not inline the corpus source: %+v", op.Class, op.Index, req)
			}
			if len(req.Ints) == 0 {
				t.Fatalf("%s op %d has no inline inputs", op.Class, op.Index)
			}
		case OpSession:
			req := sched.SessionRequest(op)
			if req.Source == "" || req.Workload != "" {
				t.Fatalf("session op %d did not inline the corpus source: %+v", op.Index, req)
			}
		}
	}
	// Same spec, same schedule — the corpus pool must not break the
	// determinism contract.
	again, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Fingerprint() != again.Fingerprint() {
		t.Fatal("corpus-backed schedule not deterministic")
	}
}

// TestRunCorpusRemote is the corpus end-to-end smoke: generated
// programs driven through the real server across all four op classes.
func TestRunCorpusRemote(t *testing.T) {
	spec := &Spec{
		Name:    "corpus-smoke",
		Seed:    11,
		Arrival: ArrivalSpec{Process: "constant", RatePerSec: 60, DurationMs: 400},
		Mix:     MixSpec{Cold: 0.15, Warm: 0.55, Replay: 0.2, Session: 0.1},
		Corpus:  writeCorpusManifest(t, 3),
	}
	sched, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	plat := serve(t, service.Config{Workers: 4, QueueDepth: 256})

	res, err := Run(context.Background(), sched, plat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Overall.Total != int64(len(sched.Ops)) {
		t.Fatalf("recorded %d outcomes for %d scheduled ops",
			res.Report.Overall.Total, len(sched.Ops))
	}
	if n := res.Report.Overall.Errors[ErrInternal]; n != 0 {
		t.Fatalf("%d internal errors in a corpus smoke run", n)
	}
	if n := res.Report.Overall.Errors[ErrReject]; n != 0 {
		t.Fatalf("%d rejects in a corpus smoke run", n)
	}
	if res.Report.Overall.OKCount == 0 {
		t.Fatal("no successful corpus requests")
	}
}

// TestSpecValidateNamedFields pins the error wording a spec author sees:
// the failing JSON field is named, not just the underlying complaint.
func TestSpecValidateNamedFields(t *testing.T) {
	base := func() Spec {
		return Spec{
			Name:    "x",
			Arrival: ArrivalSpec{Process: "constant", RatePerSec: 1, DurationMs: 100},
		}
	}

	s := base()
	s.Workloads = []string{"Huffman", "no_such_kernel"}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "workloads[1]") ||
		!strings.Contains(err.Error(), "no_such_kernel") {
		t.Errorf("unknown workload error does not name the field: %v", err)
	}

	s = base()
	s.Corpus = filepath.Join(t.TempDir(), "no_such_manifest.json")
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "corpus:") {
		t.Errorf("missing corpus error does not name the field: %v", err)
	}

	s = base()
	s.Corpus = writeCorpusManifest(t, 2)
	s.Workloads = []string{"Huffman"}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "corpus:") ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("corpus+workloads error not named: %v", err)
	}

	// A present but corrupt manifest passes Validate (no I/O beyond the
	// stat) and must fail Build with the field named.
	s = base()
	bad := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Corpus = bad
	if _, err := Build(&s); err == nil || !strings.Contains(err.Error(), "corpus:") {
		t.Errorf("corrupt manifest error not named: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "x", Arrival: ArrivalSpec{Process: "bogus"}},
		{Name: "x", Arrival: ArrivalSpec{Process: "constant", RatePerSec: 0, DurationMs: 100}},
		{Name: "x", Arrival: ArrivalSpec{Process: "ramp"}},
		{Name: "x", Arrival: ArrivalSpec{Process: "constant", RatePerSec: 1, DurationMs: 100},
			Mix: MixSpec{Cold: -1}},
		{Name: "x", Arrival: ArrivalSpec{Process: "constant", RatePerSec: 1, DurationMs: 100},
			Tenants: []TenantWeight{{Name: "", Weight: 1}}},
		{Name: "x", Arrival: ArrivalSpec{Process: "constant", RatePerSec: 1, DurationMs: 100},
			Workloads: []string{"no_such_kernel"}},
		{Name: "x", Arrival: ArrivalSpec{Process: "constant", RatePerSec: 1, DurationMs: 100},
			DeadlineMs: -5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
	good := smokeSpec()
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}
