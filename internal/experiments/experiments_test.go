package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hpcnmf/internal/perf"
)

// tinyConfig keeps experiment tests fast: small data, tiny sweeps.
func tinyConfig() Config {
	return Config{
		Scale:  0.02,
		Seed:   11,
		Iters:  2,
		Ks:     []int{4, 8},
		Ps:     []int{4},
		FixedP: 4,
		FixedK: 8,
		View:   "modeled",
	}
}

func TestComparisonRows(t *testing.T) {
	rows, err := Comparison("dsyn", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 3 algorithms × 2 ranks.
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.P != 4 || (r.K != 4 && r.K != 8) {
			t.Fatalf("unexpected row %+v", r)
		}
		if r.ModeledSeconds() <= 0 {
			t.Fatalf("row %s k=%d has zero modeled time", r.Alg, r.K)
		}
	}
}

func TestScalingRows(t *testing.T) {
	cfg := tinyConfig()
	cfg.Ps = []int{2, 4}
	rows, err := Scaling("ssyn", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
}

// TestShapeHPCBeatsNaive asserts the paper's headline conclusion on
// the squarish datasets: HPC-NMF-2D's modeled per-iteration
// communication is below Naive's at the same (k, p). This holds in
// the bandwidth-bound regime the paper evaluates (full-scale dims,
// k = 50); at toy sizes the α·log p latency terms dominate and the
// ordering genuinely flips, so the test runs at harness scale.
func TestShapeHPCBeatsNaive(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 1.0
	cfg.Ks = []int{50}
	cfg.FixedP = 16
	rows, err := Comparison("ssyn", cfg)
	if err != nil {
		t.Fatal(err)
	}
	comm := func(r Row) float64 {
		return r.Breakdown.ModeledSeconds[perf.TaskAllGather] +
			r.Breakdown.ModeledSeconds[perf.TaskReduceScatter] +
			r.Breakdown.ModeledSeconds[perf.TaskAllReduce]
	}
	var naive, hpc2d *Row
	for i := range rows {
		switch rows[i].Alg {
		case AlgNaive:
			naive = &rows[i]
		case AlgHPC2D:
			hpc2d = &rows[i]
		}
	}
	if naive == nil || hpc2d == nil {
		t.Fatal("missing rows")
	}
	if comm(*hpc2d) >= comm(*naive) {
		t.Fatalf("HPC-2D comm %g not below Naive %g", comm(*hpc2d), comm(*naive))
	}
}

func TestRunAllExperimentIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	cfg := tinyConfig()
	for _, id := range Names() {
		if id == "hadoopqual" || id == "table2" {
			continue // exercised separately; they use fixed sizes
		}
		var buf bytes.Buffer
		if err := Run(id, cfg, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := buf.String()
		if !strings.Contains(out, id) && !strings.Contains(out, "NLS") {
			t.Fatalf("%s produced unexpected output:\n%s", id, out)
		}
		if len(out) < 50 {
			t.Fatalf("%s produced implausibly short output: %q", id, out)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig9z", tinyConfig(), &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestWriteRowsViews(t *testing.T) {
	cfg := tinyConfig()
	rows, err := Comparison("dsyn", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []string{"modeled", "measured", "both"} {
		var buf bytes.Buffer
		writeRows(&buf, rows, view, false)
		if !strings.Contains(buf.String(), "Naive") {
			t.Fatalf("view %s missing algorithm rows", view)
		}
	}
}

func TestTable3Layout(t *testing.T) {
	if testing.Short() {
		t.Skip("table3 sweep in -short mode")
	}
	cfg := tinyConfig()
	var buf bytes.Buffer
	if err := Run("table3", cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cores", "Naive/DSYN", "HPC2D/Webbase"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table3 output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	rows, err := Comparison("dsyn", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteCSV(&buf, rows)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("CSV has %d lines for %d rows", len(lines), len(rows))
	}
	if !strings.HasPrefix(lines[0], "dataset,algorithm,k,p,modeled_NLS") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
	wantFields := len(strings.Split(lines[0], ","))
	for _, ln := range lines[1:] {
		if got := len(strings.Split(ln, ",")); got != wantFields {
			t.Fatalf("CSV row has %d fields, header has %d", got, wantFields)
		}
	}
}

func TestTable2Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-size experiment in -short mode")
	}
	var buf bytes.Buffer
	if err := Run("table2", tinyConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The harness must verify its own counted traffic exactly.
	if strings.Count(out, "EXACT MATCH") != 2 {
		t.Fatalf("table2 did not verify both algorithms:\n%s", out)
	}
}

func TestHadoopQualExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-size experiment in -short mode")
	}
	cfg := tinyConfig()
	cfg.Iters = 1
	var buf bytes.Buffer
	if err := Run("hadoopqual", cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "per-iteration") {
		t.Fatalf("hadoopqual output malformed:\n%s", buf.String())
	}
}

func TestWeakScalingExperiment(t *testing.T) {
	cfg := tinyConfig()
	cfg.Ps = []int{2, 4}
	cfg.FixedK = 4
	var buf bytes.Buffer
	if err := Run("weakscaling", cfg, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2+len(cfg.Ps) {
		t.Fatalf("weakscaling rows:\n%s", buf.String())
	}
}

func TestLargePExperiment(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.05 // small matrix: stops once p exceeds dims
	var buf bytes.Buffer
	if err := Run("largep", cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "comm-share") {
		t.Fatalf("largep output malformed:\n%s", buf.String())
	}
}

func TestSolversExperiment(t *testing.T) {
	cfg := tinyConfig()
	cfg.FixedK = 4
	var buf bytes.Buffer
	if err := Run("solvers", cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BPP", "HALS", "MU", "PGD", "time-to-target"} {
		if !strings.Contains(out, want) {
			t.Fatalf("solvers output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ActiveSet") {
		t.Fatalf("solvers output has a row for the Lawson–Hanson test oracle:\n%s", out)
	}
}

func TestCollectBenchReport(t *testing.T) {
	rep, err := Collect([]string{"fig3a"}, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != BenchReportVersion {
		t.Fatalf("version = %d", rep.Version)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows collected")
	}
	for _, r := range rep.Rows {
		if r.Experiment != "fig3a" || r.Algorithm == "" || r.K < 1 || r.P < 1 {
			t.Fatalf("malformed row %+v", r)
		}
		if len(r.Tasks) == 0 || r.ModeledTotalSeconds <= 0 {
			t.Fatalf("row missing task costs: %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Rows) != len(rep.Rows) {
		t.Fatal("rows lost in round trip")
	}
}

func TestCollectRejectsTextOnly(t *testing.T) {
	if _, err := Collect([]string{"table2"}, tinyConfig()); err == nil {
		t.Fatal("Collect accepted a text-only experiment")
	}
}

func TestRowProducingNamesAreRunnable(t *testing.T) {
	names := RowProducingNames()
	if len(names) < 2 {
		t.Fatalf("suspiciously few row-producing experiments: %v", names)
	}
	all := Names()
	for _, id := range names {
		found := false
		for _, n := range all {
			if n == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%q not in Names()", id)
		}
		if id == "table2" {
			t.Fatal("table2 is text-only but listed as row-producing")
		}
		if id == "hadoopqual" && testing.Short() {
			continue // fixed-size experiment
		}
		rep, err := Collect([]string{id}, tinyConfig())
		if err != nil {
			t.Fatalf("Collect(%s): %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("Collect(%s) returned no rows", id)
		}
	}
	if len(names) != len(all)-1 {
		t.Fatalf("%d of %d experiments produce rows, want every one but table2", len(names), len(all))
	}
}

func TestGridSweepRows(t *testing.T) {
	cfg := tinyConfig()
	rows, err := GridSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no grid candidates swept")
	}
	autos := 0
	for i, r := range rows {
		if r.Grid == "" || r.P != cfg.FixedP || r.K != cfg.FixedK {
			t.Fatalf("malformed sweep row %+v", r)
		}
		if r.Predicted <= 0 {
			t.Errorf("row %d (%s): predicted %v, want > 0", i, r.Grid, r.Predicted)
		}
		if r.Auto {
			autos++
			if i != 0 {
				t.Errorf("auto pick at position %d, want 0 (cheapest-first order)", i)
			}
		}
		if i > 0 && rows[i].Predicted < rows[i-1].Predicted {
			t.Errorf("sweep out of predicted order at %d: %v then %v",
				i, rows[i-1].Predicted, rows[i].Predicted)
		}
	}
	if autos != 1 {
		t.Errorf("%d rows marked as the auto pick, want exactly 1", autos)
	}
}

func TestGridsExperimentOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("grids", tinyConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{"predicted vs measured", "grid", "<- auto pick"} {
		if !strings.Contains(got, want) {
			t.Errorf("grids table missing %q:\n%s", want, got)
		}
	}
}

func TestCollectGridsCarriesForecast(t *testing.T) {
	rep, err := Collect([]string{"grids"}, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no grids rows collected")
	}
	autos := 0
	for _, r := range rep.Rows {
		if r.Experiment != "grids" || r.Grid == "" || r.PredictedSeconds <= 0 {
			t.Fatalf("grids row missing forecast fields: %+v", r)
		}
		if r.GridAuto {
			autos++
		}
	}
	if autos != 1 {
		t.Errorf("%d rows flagged grid_auto, want exactly 1", autos)
	}
}
