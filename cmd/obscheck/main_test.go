package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hpcnmf/internal/metrics"
	"hpcnmf/internal/trace"
)

// writeArtifacts produces one valid Prometheus exposition and one valid
// Chrome trace in dir, returning their paths.
func writeArtifacts(t *testing.T, dir string) (promPath, tracePath string) {
	t.Helper()

	reg := metrics.NewRegistry()
	reg.Counter("serve.project.requests").Add(3)
	reg.Gauge("mpi.rank.0.words").Set(512)
	reg.Histogram("serve.batch.size").Observe(4)
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatalf("writing exposition: %v", err)
	}
	promPath = filepath.Join(dir, "metrics.txt")
	if err := os.WriteFile(promPath, prom.Bytes(), 0o644); err != nil {
		t.Fatalf("writing %s: %v", promPath, err)
	}

	sess := trace.NewSession(1, 16)
	tc := sess.Tracer(0)
	sp := tc.BeginChildArg(trace.SpanContext{TraceID: trace.NewTraceID()}, trace.CatRequest, "http.project", "", 0)
	inner := tc.Begin(trace.CatKernel, "NNLS")
	time.Sleep(time.Millisecond)
	inner.End()
	sp.End()
	tracePath = filepath.Join(dir, "run.trace.json")
	if err := sess.Merge().WriteChromeFile(tracePath); err != nil {
		t.Fatalf("writing trace: %v", err)
	}
	return promPath, tracePath
}

// manifest writes a -require file of the given lines in dir.
func manifest(t *testing.T, dir string, lines ...string) string {
	t.Helper()
	path := filepath.Join(dir, "obs.manifest")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckValidArtifacts(t *testing.T) {
	dir := t.TempDir()
	promPath, tracePath := writeArtifacts(t, dir)
	var out, errb bytes.Buffer
	err := run([]string{"-prom", promPath, "-trace", tracePath, "-require", manifest(t, dir,
		"# what the artifacts promise", "", "span http.project",
		"series serve_project_requests_total", "series serve_batch_size_bucket")},
		&out, &errb, strings.NewReader(""))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"prom ok:", "trace ok:", "2 events", "1 ranks"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCheckFromStdin(t *testing.T) {
	promPath, _ := writeArtifacts(t, t.TempDir())
	data, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-prom", "-"}, &out, &errb, bytes.NewReader(data)); err != nil {
		t.Fatalf("run with stdin: %v", err)
	}
	if !strings.Contains(out.String(), "prom ok: -") {
		t.Errorf("stdin lint not reported:\n%s", out.String())
	}
}

func TestCheckRejectsBadArtifacts(t *testing.T) {
	dir := t.TempDir()
	promPath, tracePath := writeArtifacts(t, dir)

	badProm := filepath.Join(dir, "bad.txt")
	os.WriteFile(badProm, []byte("# TYPE x counter\nx{oops 1\n"), 0o644)
	badTrace := filepath.Join(dir, "bad.json")
	os.WriteFile(badTrace, []byte("not json"), 0o644)

	cases := [][]string{
		{},                   // nothing to check
		{"-prom", badProm},   // lint failure
		{"-trace", badTrace}, // parse failure
		{"-trace", tracePath, "-require", manifest(t, dir, "span no.such.span")},
		{"-prom", promPath, "-require", manifest(t, t.TempDir(), "series serve_project")}, // a prefix is not the series
		{"-prom", promPath, "-require", manifest(t, t.TempDir(), "metric x")},             // unknown kind
		{"-prom", promPath, "-require", filepath.Join(dir, "missing.manifest")},
		{"-prom", "-", "-trace", "-"},
		{"-prom", filepath.Join(dir, "missing.txt")},
		{"stray"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb, strings.NewReader("")); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// Every promise the input breaks is named, not just the first.
	var out, errb bytes.Buffer
	err := run([]string{"-prom", promPath, "-trace", tracePath, "-require", manifest(t, dir,
		"series nmf_step_ns_total", "span http.project", "span iteration")}, &out, &errb, strings.NewReader(""))
	if err == nil || !strings.Contains(err.Error(), "series nmf_step_ns_total, span iteration") || strings.Contains(err.Error(), "http.project") {
		t.Errorf("broken promises reported as %v", err)
	}
	// Sanity: the good artifacts still pass, so the failures above are
	// about the inputs, not the harness.
	if err := run([]string{"-prom", promPath}, &out, &errb, strings.NewReader("")); err != nil {
		t.Fatalf("control run failed: %v", err)
	}
}
