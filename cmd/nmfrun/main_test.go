package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcnmf"
)

// runOK executes run with the given args, failing the test on error.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	return out.String()
}

// fast returns the base arguments for a quick smoke run.
func fast(extra ...string) []string {
	return append([]string{"-data", "dsyn", "-scale", "0.05", "-alg", "seq", "-k", "3", "-iters", "2"}, extra...)
}

func TestRunFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	cases := [][]string{
		{"-view", "bogus"},
		{"-solver", "bogus"},
		fast("-alg", "bogus"),
		fast("-alg", "auto", "-grid", "2x2"),
		fast("stray-arg"),
		{"-resume", "/tmp/a", "-ckpt", "/tmp/b"},
		{"-mm", "/nonexistent/matrix.mtx"},
		{"-resume", "/nonexistent/ckpt-dir"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunSeqSmoke(t *testing.T) {
	got := runOK(t, fast()...)
	for _, want := range []string{"dataset:", "algorithm:", "relative error per iteration", "iter   1", "per-iteration task breakdown"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunReportAndMetrics(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	got := runOK(t, fast("-report", report, "-metrics")...)
	if !strings.Contains(got, "metrics:") {
		t.Errorf("output missing metrics snapshot:\n%s", got)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep["version"] == nil {
		t.Errorf("report has no schema version: %v", rep)
	}
	// -report alone (no -progress) must still embed the telemetry
	// series — schema v2's whole point.
	if recs, ok := rep["progress"].([]any); !ok || len(recs) == 0 {
		t.Errorf("report has no progress series: %v", rep["progress"])
	}
}

func TestRunResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	runOK(t, fast("-ckpt", dir, "-ckpt-every", "1")...)
	if matches, _ := filepath.Glob(filepath.Join(dir, "*")); len(matches) == 0 {
		t.Fatal("checkpoint directory is empty after a checkpointed run")
	}
	got := runOK(t, fast("-resume", dir, "-iters", "4")...)
	if !strings.Contains(got, "resuming "+dir) {
		t.Errorf("resumed run did not report resuming:\n%s", got)
	}
}

// TestRunResumeRefusesVersion1Checkpoint: -resume on a checkpoint a
// version 1 build wrote (unfused kernels) fails with the typed error
// instead of continuing it under a different arithmetic.
func TestRunResumeRefusesVersion1Checkpoint(t *testing.T) {
	raw, err := os.ReadFile("../../internal/core/testdata/golden_ckpt_seq_bpp_iter6.bin")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.bin"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	err = run(fast("-resume", dir, "-iters", "9"), &out, &errb)
	if !errors.Is(err, hpcnmf.ErrCheckpointVersion) {
		t.Fatalf("-resume on a version 1 checkpoint: err = %v, want ErrCheckpointVersion", err)
	}
}

func TestRunGridAutoPrintsPick(t *testing.T) {
	got := runOK(t, fast("-alg", "hpc2d", "-p", "4", "-grid", "auto")...)
	if !strings.Contains(got, "cost-model pick") || !strings.Contains(got, "grid:") {
		t.Errorf("auto grid run did not report the pick:\n%s", got)
	}
	if !strings.Contains(got, "predicted") || !strings.Contains(got, "measured") {
		t.Errorf("grid line missing predicted/measured forecast:\n%s", got)
	}

	// -alg auto on a skewed sparse matrix prints one forecast, and the
	// run that follows reports the forecast's first HPC row — same
	// grid, same predicted seconds — on its grid: line, because both
	// read one plan.
	got = runOK(t, "-data", "webbase", "-scale", "0.1", "-alg", "auto", "-p", "8", "-k", "8", "-iters", "1")
	if n := strings.Count(got, "forecast"); n != 1 {
		t.Fatalf("%d forecast tables, want exactly one:\n%s", n, got)
	}
	var forecast, gridLine string
	for _, ln := range strings.Split(got, "\n") {
		f := strings.Fields(ln)
		switch {
		case forecast == "" && len(f) == 3 && strings.HasPrefix(f[0], "HPC-NMF-") && f[2] == "s/iter":
			forecast = strings.TrimPrefix(f[0], "HPC-NMF-") + " " + f[1]
		case len(f) > 5 && f[0] == "grid:":
			gridLine = f[1] + " " + f[5]
		}
	}
	if forecast == "" || forecast != gridLine || !strings.Contains(got, "cost-model pick") {
		t.Errorf("first HPC forecast row %q, but the run's grid: line says %q:\n%s", forecast, gridLine, got)
	}
}

// TestRunAlgShorthandFollowsTable: -alg takes every solver name
// -solver takes, in any letter case, as HPC 2D with that updater, and
// a -solver beside it conflicts only when it names a different solver.
func TestRunAlgShorthandFollowsTable(t *testing.T) {
	got := runOK(t, fast("-alg", "bpp", "-solver", "BPP", "-p", "4")...)
	if !strings.Contains(got, "algorithm: HPC-NMF") || !strings.Contains(got, "solver bpp") {
		t.Errorf("-alg bpp -solver BPP did not run HPC 2D with BPP:\n%s", got)
	}
	report := filepath.Join(t.TempDir(), "report.json")
	got = runOK(t, fast("-alg", "activeset", "-p", "4", "-report", report)...)
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Updater string `json:"updater"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "algorithm: HPC-NMF") || rep.Updater != "ActiveSet" {
		t.Errorf("-alg activeset ran updater %q:\n%s", rep.Updater, got)
	}
	runOK(t, fast("-alg", "Hals", "-p", "4")...)

	var out, errb bytes.Buffer
	if err := run(fast("-alg", "mu", "-solver", "hals"), &out, &errb); err == nil || !strings.Contains(err.Error(), "different") {
		t.Errorf("-alg mu -solver hals: err = %v, want the conflict refused", err)
	}
}

func TestRunGridExplicitOverridesP(t *testing.T) {
	got := runOK(t, fast("-alg", "hpc2d", "-p", "16", "-grid", "2x2")...)
	if !strings.Contains(got, "grid:      2x2 (explicit)") {
		t.Errorf("explicit -grid 2x2 not honored:\n%s", got)
	}
}

func TestRunGridFlagRejectsMalformed(t *testing.T) {
	var out, errb bytes.Buffer
	for _, bad := range []string{"4", "0x2", "2x0", "x", "2x", "axb", "-1x2", "2x2x2"} {
		args := fast("-alg", "hpc2d", "-grid", bad)
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run with -grid %q succeeded, want parse error", bad)
		} else if !strings.Contains(err.Error(), "grid") {
			t.Errorf("-grid %q error %q does not mention the flag", bad, err)
		}
	}
}

// -progress streams one JSON object per iteration, each parseable and
// in iteration order, interleaved with the human report on stdout.
func TestRunProgressNDJSON(t *testing.T) {
	got := runOK(t, fast("-progress")...)
	var iters []int
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rec struct {
			Iter    int     `json:"iter"`
			RelErr  float64 `json:"rel_err"`
			Elapsed float64 `json:"elapsed_seconds"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if rec.Elapsed <= 0 {
			t.Fatalf("progress line %q has no elapsed time", line)
		}
		iters = append(iters, rec.Iter)
	}
	if len(iters) != 2 {
		t.Fatalf("streamed %d progress lines, want 2: output\n%s", len(iters), got)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("progress iterations out of order: %v", iters)
		}
	}
}

// Each -profile kind writes a non-empty pprof file into -profile-dir.
func TestRunProfileKinds(t *testing.T) {
	for _, kind := range []string{"cpu", "heap", "mutex", "block"} {
		dir := t.TempDir()
		got := runOK(t, fast("-profile", kind, "-profile-dir", dir)...)
		path := filepath.Join(dir, kind+".pprof")
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s profile not written: %v", kind, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s profile is empty", kind)
		}
		if !strings.Contains(got, "wrote "+kind+" profile") {
			t.Errorf("output does not mention the %s profile:\n%s", kind, got)
		}
	}
	var out, errb bytes.Buffer
	if err := run(fast("-profile", "bogus"), &out, &errb); err == nil {
		t.Error("unknown -profile kind accepted")
	}
}

// A parallel run with -metrics surfaces the per-rank comm/compute
// overlap table (satellite of the observability issue).
func TestRunMetricsShowsOverlapTable(t *testing.T) {
	got := runOK(t, "-data", "dsyn", "-scale", "0.05", "-alg", "hpc2d", "-grid", "2x2", "-k", "3", "-iters", "2", "-metrics")
	for _, want := range []string{"comm/compute overlap per rank", "window (s)", "hidden"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// One row per rank of the 2x2 grid.
	for _, rank := range []string{"\n     0  ", "\n     3  "} {
		if !strings.Contains(got, rank) {
			t.Errorf("overlap table missing rank row %q:\n%s", rank, got)
		}
	}
}
