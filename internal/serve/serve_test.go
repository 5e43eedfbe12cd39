package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcnmf/internal/core"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/metrics"
)

// testBasis builds a well-conditioned nonnegative m×k basis.
func testBasis(m, k int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	w := mat.NewDense(m, k)
	for i := range w.Data {
		w.Data[i] = 0.1 + rng.Float64()
	}
	return w
}

// addModel installs a fitted basis directly, with no fit job. The
// basis is copied; with a durable store configured the model is
// committed to it first, same as a fit.
func addModel(s *Server, id string, w *mat.Dense) error {
	if id == "" {
		return fmt.Errorf("serve: empty model id")
	}
	m, err := s.newModel(id, w.Clone())
	if err != nil {
		return err
	}
	if err := s.commit(m); err != nil {
		m.bat.close()
		return err
	}
	if err := s.st.add(m); err != nil {
		m.bat.close()
		return err
	}
	s.notifyCommit(m.id)
	return nil
}

// resident reports whether model id is in memory.
func resident(s *Server, id string) bool {
	return slices.ContainsFunc(s.Models(), func(mi ModelInfo) bool { return mi.ID == id })
}

func testColumn(m int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	col := make([]float64, m)
	for i := range col {
		col[i] = rng.Float64()
	}
	return col
}

// newTestServer builds a server preloaded with model "m1" (24×4).
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := New(opts)
	if err := addModel(s, "m1", testBasis(24, 4, 1)); err != nil {
		t.Fatalf("addModel: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// projectCol runs one column down the serving path, as handleProject
// does for a single-column body.
func projectCol(s *Server, model string, col []float64) (*projReq, error) {
	r := getReq(col)
	if err := s.project(context.Background(), model, r); err != nil {
		return nil, err
	}
	return r, nil
}

// parkedBatcher builds a batcher over the test basis whose loop has not
// started: what is submitted stays queued until the test runs b.loop,
// so queue states are set up exactly, with no clock involved.
func parkedBatcher(t *testing.T, maxBatch, queueCap int) (*batcher, *serveMetrics, *metrics.Registry) {
	t.Helper()
	proj, err := core.NewProjector(testBasis(24, 4, 1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	met := newServeMetrics(reg)
	return newBatcher(proj, maxBatch, queueCap, met, nil), met, reg
}

func queueColumns(t *testing.T, b *batcher, n int) []*projReq {
	t.Helper()
	reqs := make([]*projReq, n)
	for i := range reqs {
		reqs[i] = getReq(testColumn(24, int64(100+i)))
		if err := b.submit(reqs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return reqs
}

// awaitAll checks every request was answered with 4 coefficients.
func awaitAll(t *testing.T, reqs []*projReq) {
	t.Helper()
	for i, r := range reqs {
		<-r.done
		if r.err != nil || len(r.h) != 4 {
			t.Fatalf("request %d: err %v, %d coefficients, want 4", i, r.err, len(r.h))
		}
		putReq(r)
	}
}

// TestProjectBatchesConcurrentRequests: 32 columns queued while the
// loop is busy (here: not yet started) are one stacked solve, not 32.
func TestProjectBatchesConcurrentRequests(t *testing.T) {
	b, met, reg := parkedBatcher(t, 32, 128)
	reqs := queueColumns(t, b, 32)
	go b.loop()
	awaitAll(t, reqs)
	b.close()
	cols := reg.Snapshot().Histograms["serve.project.batch_columns"]
	if solves := met.solves.Value(); solves != 1 || cols.Sum != 32 {
		t.Fatalf("%d solves over %v columns, want exactly 1 solve of 32", solves, cols.Sum)
	}
	if met.batches.Value() != 1 || cols.Count != 1 {
		t.Errorf("batches = %d, batchCols observations = %d, want 1 and 1", met.batches.Value(), cols.Count)
	}
}

// TestLoneRequestNotDelayed: natural batching has no timer to wait out.
// A lone column on an idle batcher is cut as a batch of one as soon as
// it is queued — the test would hang, not slow down, if the loop waited
// for company.
func TestLoneRequestNotDelayed(t *testing.T) {
	b, met, reg := parkedBatcher(t, 32, 128)
	go b.loop()
	for i := 0; i < 3; i++ {
		awaitAll(t, queueColumns(t, b, 1))
	}
	b.close() // the loop records a batch after answering it
	if solves, cols := met.solves.Value(), reg.Snapshot().Histograms["serve.project.batch_columns"].Sum; solves != 3 || cols != 3 {
		t.Fatalf("%d solves over %v columns, want 3 solves of 1", solves, cols)
	}
}

// TestCloseDrainsInflight verifies the drain-don't-drop shutdown
// contract: every request accepted before close is answered.
func TestCloseDrainsInflight(t *testing.T) {
	b, met, _ := parkedBatcher(t, 8, 20)
	reqs := queueColumns(t, b, 20)
	go b.loop()
	b.close()
	for i, r := range reqs {
		if len(r.done) != 1 { // close has returned: the answer must be waiting
			t.Fatalf("request %d was dropped by shutdown", i)
		}
	}
	awaitAll(t, reqs)
	if got := met.solves.Value(); got != 3 {
		t.Fatalf("%d solves, want 3 (20 columns in batches of 8)", got)
	}
	if err := b.submit(getReq(testColumn(24, 1))); err != errClosing {
		t.Fatalf("submit after close: %v, want errClosing", err)
	}
}

// TestQueueBackpressure: a full projection queue rejects with errBusy
// instead of blocking, a multi-column submit is all-or-nothing, and the
// HTTP path counts the rejection.
func TestQueueBackpressure(t *testing.T) {
	b, _, _ := parkedBatcher(t, 4, 4)
	reqs := queueColumns(t, b, 3)
	two := []*projReq{getReq(testColumn(24, 8)), getReq(testColumn(24, 9))}
	if err := b.submit(two...); err != errBusy {
		t.Fatalf("3 queued + 2 over a cap of 4: %v, want errBusy", err)
	}
	reqs = append(reqs, queueColumns(t, b, 1)...) // exactly full
	if err := b.submit(two[0]); err != errBusy {
		t.Fatalf("queueCap + 1: %v, want errBusy", err)
	}
	go b.loop()
	awaitAll(t, reqs)
	b.close()

	// Through the server: a request wider than the whole queue can never
	// fit, whatever the loop is doing, and is counted as rejected.
	s := newTestServer(t, Options{MaxBatch: 2, QueueCap: 2})
	wide := []*projReq{getReq(two[0].col), getReq(two[0].col), getReq(two[0].col)}
	if err := s.project(context.Background(), "m1", wide...); err != errBusy {
		t.Fatalf("3 columns over a cap of 2: %v, want errBusy", err)
	}
	if got := s.met.rejected.Value(); got != 3 {
		t.Fatalf("rejected counter = %d, want 3", got)
	}
}

// TestSubmitAfterCloseRejected: requests that arrive after shutdown get
// a clean errClosing, not a hang or a panic.
func TestSubmitAfterCloseRejected(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Close()
	if _, err := projectCol(s, "m1", testColumn(24, 3)); err == nil {
		t.Fatal("project after Close succeeded, want error")
	}
}

// TestProjectMatchesDirectSolve: the batched path must agree with a
// direct Projector call on the same basis.
func TestProjectMatchesDirectSolve(t *testing.T) {
	w := testBasis(24, 4, 1)
	s := newTestServer(t, Options{})
	col := testColumn(24, 7)

	r, err := projectCol(s, "m1", col)
	if err != nil {
		t.Fatalf("project: %v", err)
	}
	got := append([]float64(nil), r.h...)
	resid := r.resid
	putReq(r)

	proj, err := core.NewProjector(w, nil, nil)
	if err != nil {
		t.Fatalf("NewProjector: %v", err)
	}
	c := mat.NewDense(24, 1)
	copy(c.Data, col)
	h := mat.NewDense(4, 1)
	if _, err := proj.ProjectInto(h, c, nil); err != nil {
		t.Fatalf("ProjectInto: %v", err)
	}
	for i := 0; i < 4; i++ {
		if diff := got[i] - h.Data[i]; diff > 1e-10 || diff < -1e-10 {
			t.Fatalf("h[%d] = %g via serve, %g direct", i, got[i], h.Data[i])
		}
	}
	if resid < 0 || resid > 1 {
		t.Fatalf("relative residual = %g, want within [0, 1]", resid)
	}
}

func TestProjectErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	if _, err := projectCol(s, "nope", testColumn(24, 3)); err == nil {
		t.Fatal("unknown model accepted")
	} else if _, ok := err.(notFoundError); !ok {
		t.Fatalf("unknown model: got %T, want notFoundError", err)
	}
	if _, err := projectCol(s, "m1", testColumn(7, 3)); err == nil {
		t.Fatal("wrong-shape column accepted")
	} else if _, ok := err.(*shapeError); !ok {
		t.Fatalf("wrong shape: got %T, want *shapeError", err)
	}
}

// negativeProjections is the table of /v1/project bodies whose entries
// test the sign check against model id (24 rows), each with the status
// it must get and, for a refusal, the entry the error must name.
func negativeProjections(id string) []struct {
	name   string
	req    ProjectRequest
	status int
	names  string
} {
	col := testColumn(24, 3)
	neg, negzero := slices.Clone(col), slices.Clone(col)
	neg[5], negzero[5] = -2, math.Copysign(0, -1)
	return []struct {
		name   string
		req    ProjectRequest
		status int
		names  string
	}{
		{"column", ProjectRequest{Model: id, Column: neg}, http.StatusBadRequest, "column[5] = -2 is negative"},
		{"columns", ProjectRequest{Model: id, Columns: [][]float64{col, neg}}, http.StatusBadRequest, "columns[1][5] = -2 is negative"},
		{"column -0.0", ProjectRequest{Model: id, Column: negzero}, http.StatusOK, ""},
		{"columns -0.0", ProjectRequest{Model: id, Columns: [][]float64{negzero, col}}, http.StatusOK, ""},
	}
}

// TestProjectRefusesNegativeEntries: /v1/project refuses a column with
// a negative entry, sent as "column" or inside "columns", with 400
// naming the entry — /v1/fit's check — and projects −0.0 like 0.
func TestProjectRefusesNegativeEntries(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}))
	defer ts.Close()
	for _, tc := range negativeProjections("m1") {
		resp := postJSON(t, ts.URL+"/v1/project", tc.req)
		var body map[string]any
		decodeBody(t, resp, &body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.status, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, tc.names) {
			t.Errorf("%s: error %q does not name %q", tc.name, msg, tc.names)
		}
	}
}

// TestFitRefusesBadShape: /v1/fit refuses, with 400 naming the fault,
// a shape whose rows*cols wraps to the length of data, a rank above
// min(rows, cols) and a solver that is not one of the four — Lawson–
// Hanson's "activeset" among them, a test oracle since DESIGN decision
// 26, refused before a job is queued with the valid names listed;
// k = min(rows, cols) is accepted.
func TestFitRefusesBadShape(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}))
	defer ts.Close()
	for _, tc := range []struct {
		name, body string
		status     int
		names      string
	}{
		{"rows*cols wraps to 0", `{"model":"m","rows":8589934592,"cols":2147483648,"data":[],"k":1}`,
			http.StatusBadRequest, "data has 0 entries"},
		{"k above min(rows, cols)", `{"model":"m","rows":2,"cols":3,"data":[1,2,3,4,5,6],"k":3}`,
			http.StatusBadRequest, "rank k = 3"},
		{"solver activeset", `{"model":"m","rows":2,"cols":3,"data":[1,2,3,4,5,6],"k":2,"solver":"activeset"}`,
			http.StatusBadRequest, "bpp, hals, mu, pgd"},
		{"k = min(rows, cols)", `{"model":"m","rows":2,"cols":3,"data":[1,2,3,4,5,6],"k":2,"max_iter":1}`,
			http.StatusAccepted, ""},
	} {
		resp := postJSON(t, ts.URL+"/v1/fit", json.RawMessage(tc.body))
		var body map[string]string
		decodeBody(t, resp, &body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.status, body)
		}
		if !strings.Contains(body["error"], tc.names) {
			t.Errorf("%s: error %q does not name %q", tc.name, body["error"], tc.names)
		}
	}
}

// TestStoreEvictsLRU: with a budget for two models, adding a third
// evicts the least recently used one, and projecting against the
// evicted model reports not-found.
func TestStoreEvictsLRU(t *testing.T) {
	per := modelBytes(24, 4, 32)
	s := New(Options{StoreBudget: 2 * per})
	defer s.Close()
	for _, id := range []string{"a", "b"} {
		if err := addModel(s, id, testBasis(24, 4, 1)); err != nil {
			t.Fatalf("addModel(%s): %v", id, err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	r, err := projectCol(s, "a", testColumn(24, 5))
	if err != nil {
		t.Fatalf("project(a): %v", err)
	}
	putReq(r)
	if err := addModel(s, "c", testBasis(24, 4, 2)); err != nil {
		t.Fatalf("addModel(c): %v", err)
	}
	if got := s.met.storeEvictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, err := projectCol(s, "b", testColumn(24, 5)); err == nil {
		t.Fatal("evicted model still serves")
	}
	ids := []string{}
	for _, info := range s.st.list() {
		ids = append(ids, info.ID)
	}
	if fmt.Sprint(ids) != "[a c]" {
		t.Fatalf("resident models = %v, want [a c]", ids)
	}
}

// TestStoreReplaceClosesOldBatcher: re-adding a model id swaps the
// basis and drains the old batcher.
func TestStoreReplaceClosesOldBatcher(t *testing.T) {
	s := newTestServer(t, Options{})
	if err := addModel(s, "m1", testBasis(24, 4, 9)); err != nil {
		t.Fatalf("replace: %v", err)
	}
	r, err := projectCol(s, "m1", testColumn(24, 5))
	if err != nil {
		t.Fatalf("project after replace: %v", err)
	}
	putReq(r)
	if got := len(s.st.list()); got != 1 {
		t.Fatalf("models resident = %d, want 1", got)
	}
}

// TestJobsBackpressure drives the fit queue with a controllable run
// function: one running job plus a full queue must reject with
// errQueueFull, and close drains every accepted job.
func TestJobsBackpressure(t *testing.T) {
	met := newServeMetrics(metrics.NewRegistry())
	release := make(chan struct{})
	var ran atomic32
	q := newJobs(1, 1, met, nil, func(j *fitJob) (float64, int, error) {
		<-release
		ran.inc()
		return 0.5, 3, nil
	})
	first, err := q.submit(FitRequest{Model: "x"})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// Wait until the worker picks up the first job, freeing the queue
	// slot; then one more fills the queue.
	waitFor(t, func() bool {
		info, _ := q.get(first)
		return info.State == JobRunning
	})
	if _, err := q.submit(FitRequest{Model: "y"}); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := q.submit(FitRequest{Model: "z"}); err != errQueueFull {
		t.Fatalf("submit 3: got %v, want errQueueFull", err)
	}
	if got := met.fitRejected.Value(); got != 1 {
		t.Fatalf("fitRejected = %d, want 1", got)
	}
	if q.retryAfter() < 1 {
		t.Fatalf("retryAfter = %d, want >= 1", q.retryAfter())
	}
	close(release)
	q.close()
	if got := ran.val(); got != 2 {
		t.Fatalf("jobs run to completion = %d, want 2 (close must drain)", got)
	}
	if got := met.fitCompleted.Value(); got != 2 {
		t.Fatalf("fitCompleted = %d, want 2", got)
	}
	info, ok := q.get(first)
	if !ok || info.State != JobDone {
		t.Fatalf("job 1 state = %+v, want done", info)
	}
}

// TestHTTPEndToEnd walks the whole HTTP surface: fit a small matrix,
// poll the job, project against the fitted model, inspect listings and
// metrics, delete the model.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(Options{FitWorkers: 1, TraceEvents: true})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Fit: a strictly positive 6×5 matrix, rank 2.
	rng := rand.New(rand.NewSource(42))
	data := make([]float64, 30)
	for i := range data {
		data[i] = 0.2 + rng.Float64()
	}
	fit := FitRequest{Model: "demo", Rows: 6, Cols: 5, Data: data, K: 2, MaxIter: 40, Seed: 7}
	resp := postJSON(t, ts.URL+"/v1/fit", fit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: status %d", resp.StatusCode)
	}
	var accepted struct {
		Job       string `json:"job"`
		StatusURL string `json:"status_url"`
	}
	decodeBody(t, resp, &accepted)

	var job JobInfo
	waitFor(t, func() bool {
		r, err := http.Get(ts.URL + accepted.StatusURL)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		decodeBody(t, r, &job)
		return job.State == JobDone || job.State == JobFailed
	})
	if job.State != JobDone {
		t.Fatalf("fit job: %+v", job)
	}

	// Project one column of the training matrix: residual should be
	// small since the model was fit on it.
	col := make([]float64, 6)
	for i := 0; i < 6; i++ {
		col[i] = data[i*5]
	}
	resp = postJSON(t, ts.URL+"/v1/project", ProjectRequest{Model: "demo", Column: col})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("project: status %d", resp.StatusCode)
	}
	var proj ProjectResponse
	decodeBody(t, resp, &proj)
	if len(proj.H) != 1 || len(proj.H[0]) != 2 {
		t.Fatalf("projection shape: %+v", proj)
	}
	if len(proj.Residuals) != 1 || proj.Residuals[0] > 0.5 {
		t.Fatalf("residual = %v, want small", proj.Residuals)
	}

	// Multi-column body.
	resp = postJSON(t, ts.URL+"/v1/project", ProjectRequest{Model: "demo", Columns: [][]float64{col, col, col}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("project multi: status %d", resp.StatusCode)
	}
	decodeBody(t, resp, &proj)
	if len(proj.H) != 3 {
		t.Fatalf("multi projection returned %d rows, want 3", len(proj.H))
	}

	// Listings, health, metrics.
	r, err := http.Get(ts.URL + "/v1/models")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("models: %v %v", err, r)
	}
	var models struct {
		Models []ModelInfo `json:"models"`
	}
	decodeBody(t, r, &models)
	if len(models.Models) != 1 || models.Models[0].ID != "demo" || models.Models[0].K != 2 {
		t.Fatalf("models listing: %+v", models)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, r)
	}
	r.Body.Close()
	r, err = http.Get(ts.URL + "/metrics")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %v", err, r)
	}
	if got := r.Header.Get("Content-Type"); got != ctPrometheus {
		t.Errorf("metrics Content-Type = %q, want %q", got, ctPrometheus)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	for _, want := range []string{"serve_project_requests_total", "serve_project_solves_total", "serve_fit_completed_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The fit the server ran reported its task breakdown to the
	// server's registry.
	for _, series := range []string{"nmf_task_NLS_ns_total", "nmf_step_ns_total"} {
		_, rest, ok := strings.Cut(buf.String(), "\n"+series+" ")
		val, _, _ := strings.Cut(rest, "\n")
		if v, err := strconv.ParseFloat(val, 64); !ok || err != nil || v <= 0 {
			t.Errorf("scrape after a fit has %s = %q, want > 0", series, val)
		}
	}
	if err := metrics.LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("default /metrics output fails Prometheus lint: %v", err)
	}

	// Delete, then project against the gone model.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/demo", nil)
	r, err = http.DefaultClient.Do(req)
	if err != nil || r.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %v", err, r)
	}
	resp = postJSON(t, ts.URL+"/v1/project", ProjectRequest{Model: "demo", Column: col})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("project after delete: status %d, want 404", resp.StatusCode)
	}

	// Bad requests.
	resp = postJSON(t, ts.URL+"/v1/fit", FitRequest{Model: "bad", Rows: 2, Cols: 2, Data: []float64{1}, K: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short-data fit: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/fit", FitRequest{Model: "bad", Rows: 2, Cols: 2, Data: []float64{1, 2, -3, 4}, K: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative-entry fit: status %d, want 400", resp.StatusCode)
	}
	var bad map[string]string
	decodeBody(t, resp, &bad)
	if !strings.Contains(bad["error"], "data[2] = -3 is negative") {
		t.Errorf("negative-entry fit: error %q does not name the entry", bad["error"])
	}
	resp = postJSON(t, ts.URL+"/v1/fit", FitRequest{Model: "negzero", Rows: 2, Cols: 2, Data: []float64{1, 2, math.Copysign(0, -1), 4}, K: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit with a -0.0 entry: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/project", ProjectRequest{Model: "demo"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty project: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	s.Close()
	tr := s.Trace()
	if tr == nil || len(tr.Events) == 0 {
		t.Fatal("tracing enabled but no spans recorded")
	}
}

// TestProjectSteadyStateZeroAlloc pins the acceptance criterion: the
// per-request serving path allocates nothing once warm (immediate-flush
// mode, workspace-backed HALS solver).
func TestProjectSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel operations")
	}
	s := newTestServer(t, Options{
		ProjectSolver: core.SolverHALS,
	})
	col := testColumn(24, 5)
	work := func() {
		r, err := projectCol(s, "m1", col)
		if err != nil {
			t.Fatalf("project: %v", err)
		}
		putReq(r)
	}
	for i := 0; i < 50; i++ { // warm pools, workspace, histogram buckets
		work()
	}
	if allocs := testing.AllocsPerRun(200, work); allocs != 0 {
		t.Errorf("steady-state project allocates %.1f objects per request, want 0", allocs)
	}
}

func BenchmarkProjectSteadyState(b *testing.B) {
	s := New(Options{ProjectSolver: core.SolverHALS})
	defer s.Close()
	if err := addModel(s, "m1", testBasis(256, 16, 1)); err != nil {
		b.Fatal(err)
	}
	col := testColumn(256, 5)
	for i := 0; i < 20; i++ {
		r, err := projectCol(s, "m1", col)
		if err != nil {
			b.Fatal(err)
		}
		putReq(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := projectCol(s, "m1", col)
		if err != nil {
			b.Fatal(err)
		}
		putReq(r)
	}
}

// --- helpers ---

type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) inc()     { a.mu.Lock(); a.n++; a.mu.Unlock() }
func (a *atomic32) val() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody(t *testing.T, r *http.Response, v any) {
	t.Helper()
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// TestFinishedJobsLetGo: a finished fit keeps neither its request
// matrix nor, past maxFinishedJobs, its record — the oldest finished id
// then answers "not found".
func TestFinishedJobsLetGo(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const n = maxFinishedJobs + 5
	var ids []string
	for i := 0; i < n; i++ {
		spec := FitRequest{Model: "refit", Rows: 6, Cols: 5, K: 2, MaxIter: 1, Seed: uint64(i)}
		spec.Data = make([]float64, spec.Rows*spec.Cols)
		for j := range spec.Data {
			spec.Data[j] = float64((i+j)%7) + 0.5
		}
		id, err := s.jobs.submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitForJob(t, s, id)
		ids = append(ids, id)
	}
	s.jobs.mu.Lock()
	kept := len(s.jobs.byID)
	for id, j := range s.jobs.byID {
		j.mu.Lock()
		if j.spec.Data != nil {
			t.Errorf("finished job %s still holds its %d-entry matrix", id, len(j.spec.Data))
		}
		j.mu.Unlock()
	}
	s.jobs.mu.Unlock()
	if kept > maxFinishedJobs {
		t.Errorf("%d job records kept after %d fits, want ≤ %d", kept, n, maxFinishedJobs)
	}
	if _, ok := s.jobs.get(ids[0]); ok {
		t.Errorf("oldest finished job %s still pollable", ids[0])
	}
	if info, ok := s.jobs.get(ids[n-1]); !ok || info.State != JobDone {
		t.Errorf("newest job = %+v, %v; want done", info, ok)
	}
}
