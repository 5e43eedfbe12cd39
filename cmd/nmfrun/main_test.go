package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
		fast("-data", "bogus"),
		fast("-scale", "Inf"),
		fast("-scale", "NaN"),
		fast("-scale", "1e30"),
	}
	for _, args := range cases {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// Lawson–Hanson is a test oracle, not a solver (DESIGN decision 26):
	// its old name is refused like any unknown one, listing the four.
	for _, args := range [][]string{fast("-solver", "activeset"), fast("-alg", "activeset")} {
		if err := run(args, &out, &errb); err == nil || !strings.Contains(err.Error(), "bpp, hals, mu, pgd") {
			t.Errorf("run(%v): err = %v, want a refusal listing bpp, hals, mu, pgd", args, err)
		}
	}
}

// TestParseFlagsRefusesUnknownAlg: an unknown -alg is refused with the
// other flag checks, before any input is loaded or generated.
func TestParseFlagsRefusesUnknownAlg(t *testing.T) {
	var errb bytes.Buffer
	_, err := parseFlags([]string{"-data", "dsyn", "-scale", "4", "-alg", "bogus"}, &errb)
	if err == nil || !strings.Contains(err.Error(), `unknown algorithm "bogus"`) {
		t.Fatalf("parseFlags(-alg bogus) = %v, want the unknown-algorithm error", err)
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

// iterLines returns the "iter" lines of a run's output.
func iterLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "iter ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestRunMatrixMarketArrayIsDense: -mm reads an array file, the
// density rule densifies it, and the run matches the same dataset
// generated in memory iteration for iteration.
func TestRunMatrixMarketArrayIsDense(t *testing.T) {
	ds, err := hpcnmf.GenerateDataset("dsyn", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := hpcnmf.UnwrapDense(ds.Matrix)
	var b strings.Builder
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix array real general\n%d %d\n", d.Rows, d.Cols)
	for j := 0; j < d.Cols; j++ {
		for i := 0; i < d.Rows; i++ {
			fmt.Fprintf(&b, "%.17g\n", d.At(i, j))
		}
	}
	path := filepath.Join(t.TempDir(), "d.mtx")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got := runOK(t, fast("-mm", path)...)
	if !strings.Contains(got, "storage: dense (auto") {
		t.Errorf("array file not densified:\n%s", got)
	}
	want := iterLines(runOK(t, fast()...))
	if g := iterLines(got); len(want) == 0 || strings.Join(g, "\n") != strings.Join(want, "\n") {
		t.Errorf("iter lines from the array file:\n%s\nwant, from the generated dataset:\n%s",
			strings.Join(g, "\n"), strings.Join(want, "\n"))
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
	if err := resumeFixture(t, "golden_ckpt_seq_bpp_iter6.bin"); !errors.Is(err, hpcnmf.ErrCheckpointVersion) {
		t.Fatalf("-resume on a version 1 checkpoint: err = %v, want ErrCheckpointVersion", err)
	}
}

// TestRunResumeRefusesVersion2Checkpoint: -resume on a checkpoint a
// version 2 build wrote (no CRC) fails with the typed error instead of
// continuing factors nothing vouches for.
func TestRunResumeRefusesVersion2Checkpoint(t *testing.T) {
	if err := resumeFixture(t, "golden_ckpt_v2_seq_bpp_iter6.bin"); !errors.Is(err, hpcnmf.ErrCheckpointVersion) {
		t.Fatalf("-resume on a version 2 checkpoint: err = %v, want ErrCheckpointVersion", err)
	}
}

// resumeFixture runs -resume on a copy of one of core's checkpoint
// fixtures and returns the run's error.
func resumeFixture(t *testing.T, name string) error {
	raw, err := os.ReadFile("../../internal/core/testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.bin"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	return run(fast("-resume", dir, "-iters", "9"), &out, &errb)
}

// TestRunTileMemReadsThroughReaderAt: tiles have one reader, so
// -tile-backend is an unknown flag, and a -tile-mem budget sizes the
// row panels at the default prefetch depth — the tallest whose
// DefaultTileDepth+1 buffers fit it. A budget too small for one row
// per buffer is refused at open, with nothing to regenerate.
func TestRunTileMemReadsThroughReaderAt(t *testing.T) {
	dir := t.TempDir()
	a := hpcnmf.NewDense(60, 20)
	for i := range a.Data {
		a.Data[i] = 0.1 + float64(i%7)
	}
	path := filepath.Join(dir, "a.nmft")
	if err := hpcnmf.WriteTiled(path, a, 0); err != nil {
		t.Fatal(err)
	}
	tiled := []string{"-tiled", path, "-alg", "mu", "-k", "3", "-iters", "2"}
	var out, errb bytes.Buffer
	if err := run(append(tiled, "-tile-backend", "readerat"), &out, &errb); err == nil || !strings.Contains(err.Error(), "not defined: -tile-backend") {
		t.Errorf("-tile-backend: err = %v, want an unknown flag", err)
	}
	report := filepath.Join(dir, "report.json")
	for _, tc := range []struct {
		mem      []string
		tileRows int
	}{
		{nil, 60},                           // one ~8 MiB panel, cut to the file's 60 rows
		{[]string{"-tile-mem", "6000"}, 12}, // three 12-row panels of 1,920 B fit, three of 13 do not
	} {
		runOK(t, append(append(tiled, "-report", report), tc.mem...)...)
		raw, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			OOC struct {
				Depth    int `json:"depth"`
				TileRows int `json:"tile_rows"`
			} `json:"ooc"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.OOC.Depth != hpcnmf.DefaultTileDepth || rep.OOC.TileRows != tc.tileRows {
			t.Errorf("%v: prefetch depth %d with %d-row panels, want %d with %d",
				tc.mem, rep.OOC.Depth, rep.OOC.TileRows, hpcnmf.DefaultTileDepth, tc.tileRows)
		}
	}
	// Three one-row buffers of 160 B do not fit 400 B.
	if err := run(append(tiled, "-tile-mem", "400"), &out, &errb); err == nil || strings.Contains(err.Error(), "regenerate") {
		t.Errorf("-tile-mem 400: err = %v, want a refusal that does not ask to regenerate the file", err)
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
	got = runOK(t, fast("-alg", "PGD", "-p", "4", "-report", report)...)
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
	if !strings.Contains(got, "algorithm: HPC-NMF") || rep.Updater != "PGD" {
		t.Errorf("-alg PGD ran updater %q:\n%s", rep.Updater, got)
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

// TestRunMetricsShowsCollectives: a parallel run with -metrics prints
// a latency histogram for each collective the half-steps run and the
// traffic gauges of every rank of the 2x2 grid, and no histogram for a
// category no collective of the fit charges (a fit makes no Barrier or
// Bcast: AllReduce charges its broadcast to itself).
func TestRunMetricsShowsCollectives(t *testing.T) {
	got := runOK(t, "-data", "dsyn", "-scale", "0.05", "-alg", "hpc2d", "-grid", "2x2", "-k", "3", "-iters", "2", "-metrics")
	for _, want := range []string{
		"mpi.collective.seconds.AllGather ", "mpi.collective.seconds.ReduceScatter ", "mpi.collective.seconds.AllReduce ",
		"mpi.rank.0.words ", "mpi.rank.3.msgs ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	for _, gone := range []string{
		"mpi.collective.seconds.Reduce ", "mpi.collective.seconds.Scatter ",
		"mpi.collective.seconds.Barrier ", "mpi.collective.seconds.Bcast ", "overlap",
	} {
		if strings.Contains(got, gone) {
			t.Errorf("output still prints %q:\n%s", gone, got)
		}
	}
}
