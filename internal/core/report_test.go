package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcnmf/internal/metrics"
	"hpcnmf/internal/perf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

func observedRun(t *testing.T, p int) (Options, *Result, DatasetInfo) {
	t.Helper()
	a := lowRankDense(48, 36, 4, 0.02, 5)
	opts := testOpts(4)
	opts.TraceEvents = true
	opts.Metrics = metrics.NewRegistry()
	res, err := RunNaive(WrapDense(a), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return opts, res, DescribeMatrix("lowrank48x36", WrapDense(a))
}

func TestReportRoundTrip(t *testing.T) {
	opts, res, ds := observedRun(t, 4)
	rep := NewReport(ds, 4, opts, res, "trace.json")

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != ReportVersion || back.Algorithm != res.Algorithm || back.Processors != 4 {
		t.Fatalf("header fields lost: %+v", back)
	}
	if back.Dataset != ds {
		t.Fatalf("dataset = %+v, want %+v", back.Dataset, ds)
	}
	if back.Iterations != res.Iterations || len(back.RelErr) != len(res.RelErr) {
		t.Fatal("convergence history lost")
	}
	if back.TracePath != "trace.json" {
		t.Fatal("trace path lost")
	}
	if len(back.PerRank) != 4 {
		t.Fatalf("%d per-rank entries, want 4", len(back.PerRank))
	}
	if back.Metrics == nil || len(back.Metrics.Counters) == 0 {
		t.Fatal("metrics snapshot missing")
	}
}

// The report's per-task costs must restate perf.Breakdown exactly —
// the acceptance criterion for machine-readable output.
func TestReportAgreesWithBreakdown(t *testing.T) {
	opts, res, ds := observedRun(t, 4)
	rep := NewReport(ds, 4, opts, res, "")

	var modeledSum float64
	for _, task := range perf.Tasks() {
		want := res.Breakdown.ModeledSeconds[task]
		got := rep.Tasks[task.String()].ModeledSeconds
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Fatalf("task %s modeled %g, breakdown %g", task, got, want)
		}
		if rep.Tasks[task.String()].Flops != res.Breakdown.Flops[task] {
			t.Fatalf("task %s flops disagree", task)
		}
		modeledSum += got
	}
	if math.Abs(modeledSum-rep.ModeledTotalSeconds) > 1e-12*math.Max(1, modeledSum) {
		t.Fatalf("task sum %g != modeled total %g", modeledSum, rep.ModeledTotalSeconds)
	}
}

func TestParseReportRejectsWrongVersion(t *testing.T) {
	if _, err := ParseReport(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("accepted future schema version")
	}
	if _, err := ParseReport(strings.NewReader(`{"version": 0}`)); err == nil {
		t.Fatal("accepted pre-v1 schema version")
	}
	// Schema v1 lost its last writer when v2 added the progress series.
	v1 := `{"version": 1, "algorithm": "Sequential", "iterations": 3, "rel_err": [0.5, 0.4, 0.3]}`
	if _, err := ParseReport(strings.NewReader(v1)); err == nil {
		t.Fatal("accepted schema v1")
	}
	if _, err := ParseReport(strings.NewReader(`{`)); err == nil {
		t.Fatal("accepted truncated JSON")
	}
}

// The progress series survives a JSON round trip with its field names.
func TestReportProgressRoundTrip(t *testing.T) {
	a := lowRankDense(24, 18, 3, 0.02, 5)
	opts := testOpts(3)
	var streamed []Progress
	opts.Progress = func(p Progress) { streamed = append(streamed, p) }
	res, err := RunSequential(WrapDense(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != res.Iterations || len(res.Progress) != res.Iterations {
		t.Fatalf("progress: streamed %d, collected %d, iterations %d",
			len(streamed), len(res.Progress), res.Iterations)
	}
	for i, p := range res.Progress {
		if p.Iter != i+1 {
			t.Fatalf("record %d has iter %d", i, p.Iter)
		}
		if p.RelErr != res.RelErr[i] {
			t.Fatalf("record %d rel_err %g, history %g", i, p.RelErr, res.RelErr[i])
		}
		if p.ElapsedSeconds <= 0 || len(p.PhaseSeconds) == 0 {
			t.Fatalf("record %d missing timing: %+v", i, p)
		}
	}
	rep := NewReport(DescribeMatrix("x", WrapDense(a)), 1, opts, res, "")
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"progress"`)) || !bytes.Contains(js, []byte(`"phase_seconds"`)) {
		t.Fatalf("progress fields missing from JSON:\n%s", js)
	}
	back, err := ParseReport(bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Progress) != len(res.Progress) || back.Progress[0].Iter != 1 {
		t.Fatal("progress series lost in round trip")
	}
}

// scrubReport zeroes every wall-clock-derived field so what remains is
// a deterministic function of (dataset, options, seed) — suitable for
// byte-exact golden comparison.
func scrubReport(rep *Report) {
	rep.MeasuredTotalSeconds = 0
	rep.UnattributedSeconds = 0
	// A task whose only cost was wall clock (Other: the transposes and
	// the factor scan around an update) has nothing deterministic left.
	scrub := func(tasks map[string]perf.TaskCost) {
		for name, tc := range tasks {
			tc.MeasuredSeconds = 0
			tasks[name] = tc
			if tc == (perf.TaskCost{}) {
				delete(tasks, name)
			}
		}
	}
	scrub(rep.Tasks)
	for i := range rep.PerRank {
		scrub(rep.PerRank[i].Tasks)
	}
	if rep.Metrics != nil {
		// Latency histograms measure wall clock; counters and gauges
		// (traffic, iterations, relerr) are deterministic.
		rep.Metrics.Histograms = nil
		// The live task counters restate tasks and per_rank above, in
		// wall-clock nanoseconds and in flops summed over ranks.
		for name := range rep.Metrics.Counters {
			if strings.HasPrefix(name, "nmf.task.") || name == "nmf.step.ns" {
				delete(rep.Metrics.Counters, name)
			}
		}
	}
	rep.TracePath = ""
	// The dispatch level depends on the machine (and any HPCNMF_CPU
	// override); results are bitwise identical across levels,
	// so pinning one would only make the golden host-specific.
	rep.KernelISA = ""
}

func TestReportGolden(t *testing.T) {
	opts, res, ds := observedRun(t, 4)
	rep := NewReport(ds, 4, opts, res, "ignored.json")
	scrubReport(rep)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "report_naive_p4.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("report drifted from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// And a second identical run serializes identically — the fixed
	// seed pins every deterministic field.
	opts2, res2, ds2 := observedRun(t, 4)
	rep2 := NewReport(ds2, 4, opts2, res2, "ignored.json")
	scrubReport(rep2)
	var buf2 bytes.Buffer
	if err := rep2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two same-seed runs produced different scrubbed reports")
	}
}

func TestReportJSONFieldNames(t *testing.T) {
	opts, res, ds := observedRun(t, 2)
	rep := NewReport(ds, 2, opts, res, "")
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"version", "dataset", "algorithm", "processors",
		"options", "iterations", "rel_err", "tasks",
		"modeled_total_seconds", "measured_total_seconds", "per_rank", "metrics"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("report JSON missing %q:\n%s", key, buf.String())
		}
	}
}
