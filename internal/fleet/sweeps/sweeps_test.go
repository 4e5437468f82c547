// Streaming-sweep service coverage: NDJSON rows re-sorted into grid
// order must be byte-identical (under cluster.Canonical) to a plain
// local sweep, cursors must resume a dropped stream without loss or
// duplication, and DELETE must cancel a running sweep.
package sweeps

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jrpm"
	"jrpm/internal/cluster"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/runs"
	"jrpm/internal/workloads"
)

func recordWorkload(t testing.TB, name string) (src string, data []byte) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.ProfileRecord(context.Background(), w.NewInput(0.2), opts, &buf); err != nil {
		t.Fatal(err)
	}
	return w.Source, buf.Bytes()
}

func gridConfigs(n int) []hydra.Config {
	banks := []int{1, 2, 4, 8}
	cfgs := make([]hydra.Config, n)
	for i := range cfgs {
		cfgs[i] = hydra.DefaultConfig()
		cfgs[i].Tracer.Banks = banks[i%len(banks)]
	}
	return cfgs
}

func newSweepServer(t testing.TB, s *Server) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	s.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func submitSweep(t testing.TB, base string, req SweepRequest) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["id"] == "" {
		t.Fatal("submit: empty sweep id")
	}
	return out["id"]
}

// streamTrailer mirrors the unexported trailer line for decoding.
type streamTrailer struct {
	Done  bool   `json:"done"`
	State string `json:"state"`
	Error string `json:"error"`
	Rows  int    `json:"rows"`
}

// readStream follows GET /v1/sweeps/{id}/rows from cursor, returning
// every row line and the final trailer.
func readStream(t testing.TB, base, id string, cursor int) ([]Row, streamTrailer) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/sweeps/%s/rows?cursor=%d", base, id, cursor))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rows: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("rows: Content-Type = %q, want application/x-ndjson", ct)
	}
	var rows []Row
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			var tr streamTrailer
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatal(err)
			}
			return rows, tr
		}
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	t.Fatalf("stream ended without a trailer (read %d rows): %v", len(rows), sc.Err())
	return nil, streamTrailer{}
}

// TestSweepsStreamEquivalence: a sweep submitted over HTTP and followed
// as NDJSON delivers every grid cell exactly once, and the streamed
// rows, re-sorted into grid order, are byte-identical to both the
// server's merged result and a plain in-process local sweep.
func TestSweepsStreamEquivalence(t *testing.T) {
	names := []string{"Huffman", "BitOps"}
	cfgs := gridConfigs(4)
	req := SweepRequest{Configs: cfgs, Opts: jrpm.DefaultOptions()}
	var want [][]cluster.OutcomeRow
	for _, n := range names {
		src, data := recordWorkload(t, n)
		req.Traces = append(req.Traces, TraceInput{Name: n, Source: src, Data: data})
		rows, err := cluster.Local{}.SweepRecording(context.Background(), n, src, data, cfgs, req.Opts)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rows)
	}

	// A coordinator with no workers runs the grid in-process — the
	// streaming layer is what is under test here.
	srv := newSweepServer(t, NewServer(cluster.New(cluster.Options{}), Options{}))
	id := submitSweep(t, srv.URL, req)
	rows, tr := readStream(t, srv.URL, id, 0)

	if !tr.Done || tr.State != StateDone {
		t.Fatalf("trailer = %+v, want done/%s", tr, StateDone)
	}
	cells := len(names) * len(cfgs)
	if len(rows) != cells || tr.Rows != cells {
		t.Fatalf("streamed %d rows, trailer says %d, want %d", len(rows), tr.Rows, cells)
	}
	sorted := make([][]cluster.OutcomeRow, len(names))
	for i := range sorted {
		sorted[i] = make([]cluster.OutcomeRow, len(cfgs))
	}
	seen := map[[2]int]int{}
	for i, row := range rows {
		if row.Seq != i {
			t.Fatalf("row %d has seq %d, want dense arrival order", i, row.Seq)
		}
		seen[[2]int{row.Trace, row.Config}]++
		sorted[row.Trace][row.Config] = row.Row
	}
	for cell, n := range seen {
		if n != 1 {
			t.Errorf("cell %v streamed %d times, want exactly once", cell, n)
		}
	}
	for ti := range names {
		got, err := cluster.Canonical(sorted[ti])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := cluster.Canonical(want[ti])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("trace %d: streamed rows re-sorted into grid order diverge from local sweep", ti)
		}
	}

	// The merged result held by the server matches too.
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "?result=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || len(st.Outcomes) != len(names) {
		t.Fatalf("status = %s with %d outcome sets, want %s with %d", st.State, len(st.Outcomes), StateDone, len(names))
	}
	for ti := range names {
		got, err := cluster.Canonical(st.Outcomes[ti])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := cluster.Canonical(want[ti])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("trace %d: merged result diverges from local sweep", ti)
		}
	}
}

// gatedRunner emits one zero row per gate token; it stands in for a
// coordinator so tests control exactly when rows appear.
type gatedRunner struct {
	cells int
	gate  chan struct{}
}

func (g *gatedRunner) SweepStream(ctx context.Context, grid cluster.Grid, onRow func(int, int, cluster.OutcomeRow)) (*cluster.Result, error) {
	rows := make([]cluster.OutcomeRow, g.cells)
	for i := 0; i < g.cells; i++ {
		select {
		case <-g.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if onRow != nil {
			onRow(0, i, rows[i])
		}
	}
	return &cluster.Result{Outcomes: [][]cluster.OutcomeRow{rows}}, nil
}

func dummyRequest() SweepRequest {
	return SweepRequest{
		Traces:  []TraceInput{{Name: "fake", Data: []byte{1}}},
		Configs: []hydra.Config{hydra.DefaultConfig()},
		Opts:    jrpm.DefaultOptions(),
	}
}

// TestSweepsCursorResume: a client that drops its stream mid-sweep
// re-attaches with ?cursor=N and receives exactly the rows it has not
// seen — no loss, no duplication.
func TestSweepsCursorResume(t *testing.T) {
	runner := &gatedRunner{cells: 6, gate: make(chan struct{}, 6)}
	srv := newSweepServer(t, NewServer(runner, Options{}))
	id := submitSweep(t, srv.URL, dummyRequest())

	// First three rows arrive; the first client reads them and drops.
	for i := 0; i < 3; i++ {
		runner.gate <- struct{}{}
	}
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var firstSeqs []int
	for len(firstSeqs) < 3 && sc.Scan() {
		var row Row
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		firstSeqs = append(firstSeqs, row.Seq)
	}
	resp.Body.Close() // simulated disconnect
	if len(firstSeqs) != 3 {
		t.Fatalf("first client read %d rows, want 3: %v", len(firstSeqs), sc.Err())
	}

	// The sweep finishes; a resumed stream from cursor 3 delivers
	// exactly rows 3..5 and the trailer.
	for i := 3; i < 6; i++ {
		runner.gate <- struct{}{}
	}
	rows, tr := readStream(t, srv.URL, id, 3)
	if !tr.Done || tr.State != StateDone || tr.Rows != 6 {
		t.Fatalf("trailer = %+v, want done/%s with 6 rows", tr, StateDone)
	}
	var resumedSeqs []int
	for _, row := range rows {
		resumedSeqs = append(resumedSeqs, row.Seq)
	}
	all := append(append([]int(nil), firstSeqs...), resumedSeqs...)
	for i, seq := range all {
		if seq != i {
			t.Fatalf("combined seqs = %v + %v, want 0..5 each exactly once", firstSeqs, resumedSeqs)
		}
	}
}

// blockingRunner emits one row and then parks until canceled.
type blockingRunner struct {
	started   chan struct{}
	startOnce sync.Once
}

func (b *blockingRunner) SweepStream(ctx context.Context, grid cluster.Grid, onRow func(int, int, cluster.OutcomeRow)) (*cluster.Result, error) {
	if onRow != nil {
		onRow(0, 0, cluster.OutcomeRow{})
	}
	b.startOnce.Do(func() { close(b.started) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestSweepsCancel: DELETE stops a running sweep — streamers see a
// canceled trailer, a second DELETE conflicts, unknown ids are 404.
func TestSweepsCancel(t *testing.T) {
	runner := &blockingRunner{started: make(chan struct{})}
	srv := newSweepServer(t, NewServer(runner, Options{}))
	id := submitSweep(t, srv.URL, dummyRequest())
	select {
	case <-runner.started:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never started")
	}

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(id); code != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", code)
	}
	rows, tr := readStream(t, srv.URL, id, 0)
	if !tr.Done || tr.State != StateCanceled {
		t.Fatalf("trailer = %+v, want done/%s", tr, StateCanceled)
	}
	if len(rows) != 1 {
		t.Errorf("canceled stream delivered %d rows, want the 1 completed before cancel", len(rows))
	}
	if code := del(id); code != http.StatusConflict {
		t.Errorf("second DELETE = %d, want 409", code)
	}
	if code := del("feedfacefeedface"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown = %d, want 404", code)
	}
}

// TestSweepsCapacity: with one running slot, a second submission is
// rejected while the first still runs, and accepted once the first is
// terminal.
func TestSweepsCapacity(t *testing.T) {
	runner := &blockingRunner{started: make(chan struct{})}
	s := NewServer(runner, Options{})
	s.runs = runs.New[*run](1, DefaultMaxSweeps)
	srv := newSweepServer(t, s)
	id := submitSweep(t, srv.URL, dummyRequest())
	select {
	case <-runner.started:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never started")
	}

	body, _ := json.Marshal(dummyRequest())
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over capacity = %d, want 429", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if _, tr := readStream(t, srv.URL, id, 0); tr.State != StateCanceled {
		t.Fatalf("trailer state = %s, want %s", tr.State, StateCanceled)
	}
	// The terminal run no longer holds the slot.
	submitSweep(t, srv.URL, dummyRequest())
}

// runnerFunc adapts a function to Runner.
type runnerFunc func(ctx context.Context, grid cluster.Grid, onRow func(int, int, cluster.OutcomeRow)) (*cluster.Result, error)

func (f runnerFunc) SweepStream(ctx context.Context, grid cluster.Grid, onRow func(int, int, cluster.OutcomeRow)) (*cluster.Result, error) {
	return f(ctx, grid, onRow)
}

// TestSweepsCancelWinsOverCompletion: a runner that ignores its context
// returns a result after DELETE has answered 204. The run stays
// canceled, and the ledger counts it once: started == completed +
// canceled + failed.
func TestSweepsCancelWinsOverCompletion(t *testing.T) {
	var srv *httptest.Server
	const id = "feedfacefeedface"
	s := NewServer(runnerFunc(func(ctx context.Context, _ cluster.Grid, _ func(int, int, cluster.OutcomeRow)) (*cluster.Result, error) {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Errorf("DELETE = %d, want 204", resp.StatusCode)
		}
		return &cluster.Result{}, nil
	}), Options{})
	srv = newSweepServer(t, s)

	// Run the sweep as submit does, but wait for execute to return.
	ctx, cancel := context.WithCancel(context.Background())
	r := &run{id: id, cond: sync.NewCond(&s.mu), cancel: cancel, state: StateRunning}
	s.runs.Add(r.id, r)
	s.started.Add(1)
	s.execute(ctx, r, cluster.Grid{})

	if _, tr := readStream(t, srv.URL, id, 0); tr.State != StateCanceled {
		t.Errorf("trailer state = %s, want %s", tr.State, StateCanceled)
	}
	started, completed, canceled, failed := s.started.Load(), s.completed.Load(), s.canceled.Load(), s.failed.Load()
	if started != 1 || completed != 0 || canceled != 1 || failed != 0 {
		t.Errorf("started=%d completed=%d canceled=%d failed=%d, want 1/0/1/0", started, completed, canceled, failed)
	}
	if started != completed+canceled+failed {
		t.Errorf("started %d != completed %d + canceled %d + failed %d", started, completed, canceled, failed)
	}
}

// TestSweepsValidation: malformed submissions and unknown ids are
// rejected with the right statuses.
func TestSweepsValidation(t *testing.T) {
	srv := newSweepServer(t, NewServer(cluster.New(cluster.Options{}), Options{}))
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"traces":[],"configs":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty grid = %d, want 400", code)
	}
	if code := post(`{"traces":[{"name":"x"}],"configs":[{}]}`); code != http.StatusBadRequest {
		t.Errorf("trace without data = %d, want 400", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Errorf("bad json = %d, want 400", code)
	}
	// A store table this large would exhaust memory in the model, which
	// no recover can catch: it must be refused before the sweep starts.
	src, data := recordWorkload(t, "Huffman")
	if code := post(hugeTableBody(t, src, data)); code != http.StatusBadRequest {
		t.Errorf("LoadLineTS = 1<<38: %d, want 400", code)
	}
	// So would many geometries that each pass the per-table bound.
	if code := post(manyGeometriesBody(t, src, data)); code != http.StatusBadRequest {
		t.Errorf("1,000 geometries at the per-table bound: %d, want 400", code)
	}
	for _, path := range []string{"/v1/sweeps/nope", "/v1/sweeps/nope/rows"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/sweeps/nope/rows?cursor=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative cursor = %d, want 400", resp.StatusCode)
	}
}

// hugeTableBody is a sweep submission with a real recording and one
// config whose load-line timestamp table has 1<<38 entries.
func hugeTableBody(t testing.TB, src string, data []byte) string {
	cfg := hydra.DefaultConfig()
	cfg.Tracer.LoadLineTS = 1 << 38
	return gridBody(t, src, data, []hydra.Config{cfg})
}

// manyGeometriesBody is a sweep submission with 1,000 configs, each
// with both line timestamp caches at core.MaxTableLines and its own
// Buffers.LoadLines (free to choose, but part of the geometry key).
// Each config passes the per-table bound; their groups together would
// hold about 48 GB of tables.
func manyGeometriesBody(t testing.TB, src string, data []byte) string {
	cfgs := make([]hydra.Config, 1000)
	for i := range cfgs {
		cfgs[i] = hydra.DefaultConfig()
		cfgs[i].Tracer.LoadLineTS = core.MaxTableLines
		cfgs[i].Tracer.StoreLineTS = core.MaxTableLines
		cfgs[i].Buffers.LoadLines = i + 1
	}
	return gridBody(t, src, data, cfgs)
}

// gridBody is a sweep submission of one recording under cfgs.
func gridBody(t testing.TB, src string, data []byte, cfgs []hydra.Config) string {
	t.Helper()
	body, err := json.Marshal(SweepRequest{
		Traces:  []TraceInput{{Name: "Huffman", Source: src, Data: data}},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
