package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hpcnmf/internal/core"
	"hpcnmf/internal/metrics"
	"hpcnmf/internal/trace"
)

// TestRequestSpanParentsKernelChain is the tracing acceptance
// criterion: a single HTTP projection request must produce a trace
// whose request span transitively parents the batch span, the stacked
// solve span, and the compute-kernel spans — across the request track
// and the model batcher track.
func TestRequestSpanParentsKernelChain(t *testing.T) {
	s := newTestServer(t, Options{TraceEvents: true})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/project", ProjectRequest{Model: "m1", Column: testColumn(24, 7)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("project: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	sc, err := trace.ParseSpanContext(resp.Header.Get("X-Trace-Id"))
	if err != nil || !sc.Valid() {
		t.Fatalf("X-Trace-Id response header %q: %v", resp.Header.Get("X-Trace-Id"), err)
	}

	s.Close()
	tr := s.Trace()
	if tr == nil {
		t.Fatal("tracing enabled but Trace() is nil")
	}
	verifyRequestChain(t, tr, sc)

	// The chain must survive the Chrome trace_event export round trip
	// (span identity rides as hex-string args), so the same causal
	// check holds on what Perfetto actually loads.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	back, err := trace.ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseChrome: %v", err)
	}
	verifyRequestChain(t, back, sc)
}

// verifyRequestChain asserts request → batch → solve → {MulAtB, NNLS}
// parent links, all stamped with the request's trace ID.
func verifyRequestChain(t *testing.T, tr *trace.Trace, sc trace.SpanContext) {
	t.Helper()
	find := func(name string) trace.Event {
		t.Helper()
		for _, e := range tr.Events {
			if e.Name == name && e.TraceID == sc.TraceID {
				return e
			}
		}
		t.Fatalf("no %q event with trace ID %#x in %d events", name, sc.TraceID, len(tr.Events))
		return trace.Event{}
	}
	req := find("http.project")
	if req.ID != sc.SpanID || req.Cat != trace.CatRequest {
		t.Fatalf("request span = %+v, want ID %#x cat %q", req, sc.SpanID, trace.CatRequest)
	}
	batch := find("serve.batch")
	if batch.Parent != req.ID {
		t.Fatalf("batch parent = %#x, want request span %#x", batch.Parent, req.ID)
	}
	solve := find("serve.solve")
	if solve.Parent != batch.ID {
		t.Fatalf("solve parent = %#x, want batch span %#x", solve.Parent, batch.ID)
	}
	for _, kernel := range []string{"MulAtB", "NNLS"} {
		k := find(kernel)
		if k.Parent != solve.ID || k.Cat != trace.CatKernel {
			t.Fatalf("%s parent/cat = %#x/%q, want solve span %#x / %q",
				kernel, k.Parent, k.Cat, solve.ID, trace.CatKernel)
		}
	}
	if batch.Rank == req.Rank {
		t.Fatalf("batch and request on the same track %d: tracks not separated", req.Rank)
	}
}

// An incoming X-Trace-Id header joins the caller's trace: the request
// span is recorded as a child of the caller's span under the caller's
// trace ID.
func TestRequestSpanHonorsIncomingTraceID(t *testing.T) {
	s := newTestServer(t, Options{TraceEvents: true})
	ts := httptest.NewServer(s)
	defer ts.Close()

	caller := trace.SpanContext{TraceID: 0xfeed, SpanID: 0xbeef}
	var body bytes.Buffer
	json.NewEncoder(&body).Encode(ProjectRequest{Model: "m1", Column: testColumn(24, 7)})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/project", &body)
	req.Header.Set("X-Trace-Id", caller.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("project: %v %v", err, resp)
	}
	resp.Body.Close()
	echoed, err := trace.ParseSpanContext(resp.Header.Get("X-Trace-Id"))
	if err != nil || echoed.TraceID != caller.TraceID {
		t.Fatalf("echoed trace ID %#x, want caller's %#x (%v)", echoed.TraceID, caller.TraceID, err)
	}

	s.Close()
	tr := s.Trace()
	for _, e := range tr.Events {
		if e.Name == "http.project" {
			if e.TraceID != caller.TraceID || e.Parent != caller.SpanID {
				t.Fatalf("request span trace/parent = %#x/%#x, want %#x/%#x",
					e.TraceID, e.Parent, caller.TraceID, caller.SpanID)
			}
			return
		}
	}
	t.Fatal("no http.project span recorded")
}

// TestMetricsNegotiation pins the /metrics content negotiation:
// Prometheus by default, OpenMetrics (with # EOF) and JSON on request.
func TestMetricsNegotiation(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	if r, err := projectCol(s, "m1", testColumn(24, 7)); err != nil {
		t.Fatal(err)
	} else {
		putReq(r)
	}

	get := func(url, accept string) (string, *http.Response) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v %v", url, err, resp)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return buf.String(), resp
	}

	// Default: Prometheus 0.0.4 including go-runtime gauges, and the
	// whole document passes the promtool-style lint.
	body, resp := get(ts.URL+"/metrics", "")
	if got := resp.Header.Get("Content-Type"); got != ctPrometheus {
		t.Errorf("default Content-Type = %q, want %q", got, ctPrometheus)
	}
	for _, want := range []string{"serve_project_requests_total", "go_goroutines", "serve_project_request_seconds_bucket{le=\"+Inf\"}"} {
		if !strings.Contains(body, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	if err := metrics.LintPrometheus(strings.NewReader(body)); err != nil {
		t.Errorf("Prometheus lint: %v", err)
	}
	// Deterministic ordering: two consecutive scrapes of stable
	// instruments agree byte-for-byte on the registry section.
	body2, _ := get(ts.URL+"/metrics", "")
	cut := func(s string) string { return s[:strings.Index(s, "go_goroutines")] }
	if cut(body) != cut(body2) {
		t.Error("two scrapes of unchanged instruments differ: exposition order is not deterministic")
	}

	// OpenMetrics via Accept: terminated by # EOF.
	body, resp = get(ts.URL+"/metrics", "application/openmetrics-text; version=1.0.0")
	if got := resp.Header.Get("Content-Type"); got != ctOpenMetrics {
		t.Errorf("OpenMetrics Content-Type = %q, want %q", got, ctOpenMetrics)
	}
	if !strings.HasSuffix(strings.TrimSpace(body), "# EOF") {
		t.Error("OpenMetrics output not terminated by # EOF")
	}
	if err := metrics.LintPrometheus(strings.NewReader(body)); err != nil {
		t.Errorf("OpenMetrics lint: %v", err)
	}

	// JSON via ?format= and via Accept: the structured snapshot with
	// the registry's dotted instrument names.
	for _, variant := range []struct{ url, accept string }{
		{ts.URL + "/metrics?format=json", ""},
		{ts.URL + "/metrics", "application/json"},
	} {
		body, resp = get(variant.url, variant.accept)
		if got := resp.Header.Get("Content-Type"); got != "application/json" {
			t.Errorf("JSON Content-Type = %q", got)
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("JSON snapshot does not parse: %v", err)
		}
		if _, ok := snap.Counters["serve.project.requests"]; !ok {
			t.Errorf("JSON snapshot missing serve.project.requests: %v", snap.Counters)
		}
	}
}

// Pprof mounts the profiling surface only when asked.
func TestPprofEndpointGated(t *testing.T) {
	on := newTestServer(t, Options{Pprof: true})
	tsOn := httptest.NewServer(on)
	defer tsOn.Close()
	r, err := http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %v %v", err, r)
	}
	r.Body.Close()
	r, err = http.Get(tsOn.URL + "/debug/pprof/heap?debug=1")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("pprof heap: %v %v", err, r)
	}
	r.Body.Close()

	off := newTestServer(t, Options{})
	tsOff := httptest.NewServer(off)
	defer tsOff.Close()
	r, err = http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode == http.StatusOK {
		t.Fatal("pprof served without Options.Pprof")
	}
}

// TestJobProgressStream: the NDJSON endpoint streams one line per
// completed iteration and a terminal JobInfo line.
func TestJobProgressStream(t *testing.T) {
	s := New(Options{FitWorkers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	data := make([]float64, 30)
	for i := range data {
		data[i] = 0.2 + float64(i%7)/7
	}
	resp := postJSON(t, ts.URL+"/v1/fit", FitRequest{
		Model: "demo", Rows: 6, Cols: 5, Data: data, K: 2, MaxIter: 12, Seed: 7,
	})
	var accepted struct {
		Job string `json:"job"`
	}
	decodeBody(t, resp, &accepted)

	r, err := http.Get(ts.URL + "/v1/jobs/" + accepted.Job + "/progress")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("progress: %v %v", err, r)
	}
	defer r.Body.Close()
	if got := r.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("progress Content-Type = %q", got)
	}

	var records []core.Progress
	var final JobInfo
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var p core.Progress
		if err := json.Unmarshal(line, &p); err == nil && p.Iter > 0 {
			records = append(records, p)
			continue
		}
		if err := json.Unmarshal(line, &final); err != nil {
			t.Fatalf("unparseable progress line %q: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone {
		t.Fatalf("terminal line state = %q, want done: %+v", final.State, final)
	}
	if len(records) != final.Iterations {
		t.Fatalf("streamed %d progress lines for %d iterations", len(records), final.Iterations)
	}
	for i, p := range records {
		if p.Iter != i+1 {
			t.Fatalf("line %d has iter %d", i, p.Iter)
		}
		if p.ElapsedSeconds <= 0 {
			t.Fatalf("line %d missing elapsed time: %+v", i, p)
		}
	}

	// Unknown job: 404, not a hanging stream.
	r, err = http.Get(ts.URL + "/v1/jobs/nope/progress")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job progress: status %d, want 404", r.StatusCode)
	}
}
