// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) on the simulated cluster. Each experiment
// id corresponds to one artifact (see DESIGN.md's per-experiment
// index); the harness runs the same three algorithm configurations
// the paper benchmarks — Naive (Algorithm 2), HPC-NMF with a 1D grid,
// and HPC-NMF with a 2D grid — and reports the per-iteration task
// breakdown in α-β-γ modeled seconds (the cluster-faithful view; see
// DESIGN.md's substitution table) alongside measured wall time.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"hpcnmf/internal/core"
	"hpcnmf/internal/costmodel"
	"hpcnmf/internal/datasets"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/partition"
	"hpcnmf/internal/perf"
)

// Config tunes experiment size so the full suite can run from seconds
// (benchmarks) to minutes (full harness).
type Config struct {
	// Scale multiplies dataset dimensions (1.0 = harness defaults).
	Scale float64
	// Seed drives dataset generation and factor initialization.
	Seed uint64
	// Iters is the number of alternating iterations to measure.
	Iters int
	// Ks is the rank sweep for comparison experiments
	// (default 10..50 step 10, as in Figure 3).
	Ks []int
	// Ps is the processor sweep for scaling experiments
	// (default 4, 16, 64; powers of two keep the collectives on
	// their O(log p) paths).
	Ps []int
	// FixedP is the processor count for comparison experiments.
	FixedP int
	// FixedK is the rank for scaling experiments (paper: 50).
	FixedK int
	// View selects "modeled", "measured", or "both" in reports.
	View string
}

// DefaultConfig returns the harness defaults.
func DefaultConfig() Config {
	return Config{
		Scale:  1.0,
		Seed:   42,
		Iters:  3,
		Ks:     []int{10, 20, 30, 40, 50},
		Ps:     []int{4, 16, 64},
		FixedP: 16,
		FixedK: 50,
		View:   "modeled",
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.Iters <= 0 {
		c.Iters = d.Iters
	}
	if len(c.Ks) == 0 {
		c.Ks = d.Ks
	}
	if len(c.Ps) == 0 {
		c.Ps = d.Ps
	}
	if c.FixedP <= 0 {
		c.FixedP = d.FixedP
	}
	if c.FixedK <= 0 {
		c.FixedK = d.FixedK
	}
	if c.View == "" {
		c.View = d.View
	}
	return c
}

// options is the driver configuration every run of the harness starts
// from; an experiment that needs more sets it on the copy.
func (c Config) options(k int) core.Options {
	return core.Options{K: k, MaxIter: c.Iters, Seed: c.Seed}
}

// Algorithm names used across the harness.
const (
	AlgNaive = "Naive"
	AlgHPC1D = "HPC-NMF-1D"
	AlgHPC2D = "HPC-NMF-2D"
	// algAuto is HPC-NMF on the grid the cost model picks.
	algAuto = "HPC-NMF-auto"
)

// Algorithms lists the three benchmarked configurations in the
// paper's presentation order.
func Algorithms() []string { return []string{AlgNaive, AlgHPC1D, AlgHPC2D} }

// Row is one measured configuration: a point in one of the paper's
// figures.
type Row struct {
	Dataset string
	Alg     string
	K, P    int
	// M, N and NNZ are the shape and stored-entry count of the
	// factorized matrix.
	M, N      int
	NNZ       int64
	Breakdown *perf.Breakdown
	// RelErr is the error history, kept by runs that compute it (the
	// solvers experiment).
	RelErr []float64
	// Grid and Predicted are set by the grids experiment only: the
	// pr×pc shape ("4x4") and the cost model's per-iteration forecast
	// the autotuner ranked it by. Auto marks the tuner's pick.
	Grid      string
	Predicted float64
	Auto      bool
	// Note is a line the experiment's text writer prints with the row:
	// partition's block-nnz analysis, a solver's failure.
	Note string
}

// ModeledSeconds is the per-iteration modeled total.
func (r Row) ModeledSeconds() float64 { return r.Breakdown.ModeledTotal() }

// MeasuredSeconds is the per-iteration measured total.
func (r Row) MeasuredSeconds() float64 { return r.Breakdown.MeasuredTotal() }

// runOne is the harness's one way into the drivers: it factorizes a
// with one algorithm configuration on p ranks. The returned row names
// the configuration even when the run fails.
func runOne(name string, a core.Matrix, alg string, p int, opts core.Options) (Row, error) {
	m, n := a.Dims()
	row := Row{Dataset: name, Alg: alg, K: opts.K, P: p, M: m, N: n, NNZ: int64(a.NNZ())}
	var res *core.Result
	var err error
	switch alg {
	case AlgNaive:
		res, err = core.RunNaive(a, p, opts)
	case AlgHPC1D, AlgHPC2D:
		g := grid.New(p, 1)
		if alg == AlgHPC2D {
			g = grid.Choose(m, n, p)
		}
		res, err = core.RunHPC(a, g, opts)
	case algAuto:
		res, err = core.RunParallelAuto(a, p, opts)
	default:
		err = fmt.Errorf("experiments: unknown algorithm %q", alg)
	}
	if err != nil {
		return row, fmt.Errorf("%s %s k=%d p=%d: %w", name, alg, opts.K, p, err)
	}
	row.Breakdown, row.RelErr = res.Breakdown, res.RelErr
	return row, nil
}

// sweep runs one dataset across the algorithms × ks × ps grid, in
// that nesting order.
func sweep(dsName string, cfg Config, ks, ps []int) ([]Row, error) {
	ds, err := datasets.ByName(dsName, datasets.Scale(cfg.Scale), cfg.Seed)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, alg := range Algorithms() {
		for _, k := range ks {
			for _, p := range ps {
				r, err := runOne(ds.Name, ds.Matrix, alg, p, cfg.options(k))
				if err != nil {
					return nil, err
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// Comparison reproduces the left column of Figure 3: fixed p, rank
// sweep, all three algorithms.
func Comparison(dsName string, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	return sweep(dsName, cfg, cfg.Ks, []int{cfg.FixedP})
}

// Scaling reproduces the right column of Figure 3: fixed rank,
// processor sweep, all three algorithms (strong scaling).
func Scaling(dsName string, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	return sweep(dsName, cfg, []int{cfg.FixedK}, cfg.Ps)
}

// solversIters is long enough for the solvers experiment's error
// trajectories to separate.
const solversIters = 20

// experiment is one artifact of the evaluation: the runs behind it and
// how its text report is laid out. Everything that lists, runs or
// collects experiments reads the table below.
type experiment struct {
	id string
	// header is the caption after "== id: "; every experiment has at
	// least one row for it to describe.
	header func(cfg Config, rows []Row) string
	rows   func(cfg Config) ([]Row, error)
	write  func(w io.Writer, cfg Config, rows []Row)
	// textOnly keeps the experiment out of the JSON and CSV forms: its
	// artifact is the text, not its rows.
	textOnly bool
}

// table is the one list of experiments, in presentation order.
var table = []experiment{
	figure("fig3a", "ssyn", false, "Sparse Synthetic (SSYN) Comparison"),
	figure("fig3b", "ssyn", true, "Sparse Synthetic (SSYN) Scaling"),
	figure("fig3c", "dsyn", false, "Dense Synthetic (DSYN) Comparison"),
	figure("fig3d", "dsyn", true, "Dense Synthetic (DSYN) Scaling"),
	figure("fig3e", "webbase", false, "Webbase Comparison"),
	figure("fig3f", "webbase", true, "Webbase Scaling"),
	figure("fig3g", "video", false, "Video Comparison"),
	figure("fig3h", "video", true, "Video Scaling"),
	{id: "table2", rows: table2Rows, write: writeTable2, textOnly: true, header: func(_ Config, r []Row) string {
		return fmt.Sprintf("Algorithmic costs (m=%d n=%d k=%d p=%d)", r[0].M, r[0].N, r[0].K, r[0].P)
	}},
	{id: "table3", rows: table3Rows, write: writeTable3, header: func(c Config, _ []Row) string {
		return fmt.Sprintf("Per-iteration running times (k=%d, modeled seconds)", c.FixedK)
	}},
	{id: "grids", rows: GridSweep, write: writeGrids, header: func(c Config, _ []Row) string {
		return fmt.Sprintf("predicted vs measured per-iteration time by grid (dsyn, k=%d, p=%d)", c.FixedK, c.FixedP)
	}},
	{id: "hadoopqual", rows: hadoopQualRows, write: writeHadoopQual, header: func(_ Config, r []Row) string {
		return fmt.Sprintf("MU on sparse %dx%d (nnz=%d, k=%d, p=%d)", r[0].M, r[0].N, r[0].NNZ, r[0].K, r[0].P)
	}},
	{id: "partition", rows: partitionRows, write: writePartition, header: func(_ Config, r []Row) string {
		return fmt.Sprintf("nonzero load balance on Webbase (%dx%d, nnz=%d)", r[0].M, r[0].N, r[0].NNZ)
	}},
	{id: "weakscaling", rows: weakScalingRows, write: writeWeakScaling, header: func(c Config, _ []Row) string {
		return fmt.Sprintf("per-rank data fixed, k=%d (modeled s/iter)", c.FixedK)
	}},
	{id: "largep", rows: largePRows, write: writeLargeP, header: func(c Config, r []Row) string {
		return fmt.Sprintf("strong scaling into the communication-dominated regime (SSYN %dx%d, k=%d)", r[0].M, r[0].N, c.FixedK)
	}},
	{id: "solvers", rows: solversRows, write: writeSolvers, header: func(_ Config, r []Row) string {
		return fmt.Sprintf("local NLS methods within parallel ANLS (DSYN %dx%d, k=%d, p=%d, %d iters)",
			r[0].M, r[0].N, r[0].K, r[0].P, solversIters)
	}},
}

// figure is one panel of Figure 3: a rank sweep at fixed p
// (comparison) or a processor sweep at fixed rank (scaling).
func figure(id, dataset string, scaling bool, caption string) experiment {
	rows := Comparison
	if scaling {
		rows = Scaling
	}
	return experiment{
		id:     id,
		header: func(Config, []Row) string { return caption },
		rows:   func(cfg Config) ([]Row, error) { return rows(dataset, cfg) },
		write:  func(w io.Writer, cfg Config, r []Row) { writeRows(w, r, cfg.View, scaling) },
	}
}

// Names lists every experiment id in presentation order.
func Names() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}

// RowProducingNames lists the experiment ids Collect and the CSV view
// accept: every one whose artifact is its rows.
func RowProducingNames() []string {
	var ids []string
	for _, e := range table {
		if !e.textOnly {
			ids = append(ids, e.id)
		}
	}
	return ids
}

func find(id string) (experiment, error) {
	for _, e := range table {
		if e.id == id {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(Names(), ", "))
}

// Run executes one experiment by id and writes its report to w: the
// text table, or with cfg.View "csv" the rows as CSV.
func Run(id string, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	e, err := find(id)
	if err != nil {
		return err
	}
	rows, err := e.rows(cfg)
	if err != nil {
		return err
	}
	if cfg.View == "csv" && !e.textOnly {
		WriteCSV(w, rows)
		return nil
	}
	fmt.Fprintf(w, "== %s: %s ==\n", id, e.header(cfg, rows))
	e.write(w, cfg, rows)
	return nil
}

// BenchRow is one measured configuration in machine-readable form:
// the per-task breakdown of a (dataset, algorithm, k, p) point.
type BenchRow struct {
	Experiment           string                   `json:"experiment"`
	Dataset              string                   `json:"dataset"`
	Algorithm            string                   `json:"algorithm"`
	K                    int                      `json:"k"`
	P                    int                      `json:"p"`
	Tasks                map[string]perf.TaskCost `json:"tasks"`
	ModeledTotalSeconds  float64                  `json:"modeled_total_seconds"`
	MeasuredTotalSeconds float64                  `json:"measured_total_seconds"`
	// Grid, PredictedSeconds and GridAuto appear on grids-experiment
	// rows only: the pr×pc shape, the autotuner's forecast for it, and
	// whether it was the tuner's pick.
	Grid             string  `json:"grid,omitempty"`
	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	GridAuto         bool    `json:"grid_auto,omitempty"`
}

// BenchReport is the versioned machine-readable output of a benchmark
// run (nmfbench -json), the diffable counterpart of the text tables:
// store one per commit (BENCH_<rev>.json) and compare modeled totals
// mechanically.
type BenchReport struct {
	Version int        `json:"version"`
	Scale   float64    `json:"scale"`
	Seed    uint64     `json:"seed"`
	Iters   int        `json:"iters"`
	Rows    []BenchRow `json:"rows"`
}

// BenchReportVersion identifies the BenchReport schema.
const BenchReportVersion = 1

// Collect runs the named experiments and returns their points as a
// BenchReport. A text-only experiment is rejected.
func Collect(ids []string, cfg Config) (*BenchReport, error) {
	cfg = cfg.withDefaults()
	rep := &BenchReport{
		Version: BenchReportVersion,
		Scale:   cfg.Scale,
		Seed:    cfg.Seed,
		Iters:   cfg.Iters,
	}
	for _, id := range ids {
		e, err := find(id)
		if err != nil {
			return nil, err
		}
		if e.textOnly {
			return nil, fmt.Errorf("experiments: %q is text-only and has no machine-readable form (row-producing: %s)",
				id, strings.Join(RowProducingNames(), ", "))
		}
		rows, err := e.rows(cfg)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			rep.Rows = append(rep.Rows, BenchRow{
				Experiment:           id,
				Dataset:              r.Dataset,
				Algorithm:            r.Alg,
				K:                    r.K,
				P:                    r.P,
				Tasks:                r.Breakdown.ByTask(),
				ModeledTotalSeconds:  r.Breakdown.ModeledTotal(),
				MeasuredTotalSeconds: r.Breakdown.MeasuredTotal(),
				Grid:                 r.Grid,
				PredictedSeconds:     r.Predicted,
				GridAuto:             r.Auto,
			})
		}
	}
	return rep, nil
}

// WriteJSON writes the benchmark report as indented JSON.
func (b *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// legend is Figure 3's stacked-bar legend: the task columns of the
// figure tables and the CSV.
var legend = []perf.Task{perf.TaskNLS, perf.TaskMM, perf.TaskGram, perf.TaskAllGather, perf.TaskReduceScatter, perf.TaskAllReduce}

// WriteCSV emits rows in a plotting-friendly CSV layout: one line per
// (dataset, algorithm, k, p) with both modeled and measured per-task
// seconds plus traffic counts.
func WriteCSV(w io.Writer, rows []Row) {
	fmt.Fprint(w, "dataset,algorithm,k,p")
	for _, c := range legend {
		fmt.Fprintf(w, ",modeled_%s", c)
	}
	fmt.Fprint(w, ",modeled_total,measured_total,msgs,words,flops\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s,%s,%d,%d", r.Dataset, r.Alg, r.K, r.P)
		var msgs, words, flops int64
		for _, c := range legend {
			fmt.Fprintf(w, ",%.9g", r.Breakdown.ModeledSeconds[c])
			msgs += r.Breakdown.Msgs[c]
			words += r.Breakdown.Words[c]
			flops += r.Breakdown.Flops[c]
		}
		fmt.Fprintf(w, ",%.9g,%.9g,%d,%d,%d\n",
			r.Breakdown.ModeledTotal(), r.Breakdown.MeasuredTotal(), msgs, words, flops)
	}
}

// writeRows prints one figure's data: a line per (algorithm, x) with
// the per-task stacked breakdown, matching Figure 3's legend.
func writeRows(w io.Writer, rows []Row, view string, scaling bool) {
	xLabel := "k"
	if scaling {
		xLabel = "p"
	}
	fmt.Fprintf(w, "%-12s %4s", "algorithm", xLabel)
	for _, c := range legend {
		fmt.Fprintf(w, " %10s", c)
	}
	fmt.Fprintf(w, " %10s", "total")
	if view == "both" {
		fmt.Fprintf(w, " %12s", "measured")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		x := r.K
		if scaling {
			x = r.P
		}
		fmt.Fprintf(w, "%-12s %4d", r.Alg, x)
		sel := r.Breakdown.ModeledSeconds
		if view == "measured" {
			sel = r.Breakdown.MeasuredSeconds
		}
		total := 0.0
		for _, c := range legend {
			fmt.Fprintf(w, " %10.6f", sel[c])
			total += sel[c]
		}
		fmt.Fprintf(w, " %10.6f", total)
		if view == "both" {
			fmt.Fprintf(w, " %12.6f", r.Breakdown.MeasuredTotal())
		}
		fmt.Fprintln(w)
	}
}

// gridName renders a grid the way every table prints it.
func gridName(g grid.Grid) string { return fmt.Sprintf("%dx%d", g.PR, g.PC) }

// table3Rows is the per-iteration running-time table: k fixed, all
// datasets × algorithms × processor counts; the text has one line per
// processor count and one column per (algorithm, dataset).
func table3Rows(cfg Config) ([]Row, error) {
	var rows []Row
	for _, ds := range datasets.Names() {
		r, err := Scaling(ds, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func writeTable3(w io.Writer, cfg Config, rows []Row) {
	type key struct {
		alg string
		ds  string
		p   int
	}
	vals := map[key]float64{}
	for _, r := range rows {
		vals[key{r.Alg, r.Dataset, r.P}] = r.ModeledSeconds()
	}
	dsOrder := []string{"DSYN", "SSYN", "Video", "Webbase"}
	short := map[string]string{AlgNaive: "Naive", AlgHPC1D: "HPC1D", AlgHPC2D: "HPC2D"}
	fmt.Fprintf(w, "%6s", "cores")
	for _, alg := range Algorithms() {
		for _, ds := range dsOrder {
			fmt.Fprintf(w, " %14s", short[alg]+"/"+ds)
		}
	}
	fmt.Fprintln(w)
	for _, p := range cfg.Ps {
		fmt.Fprintf(w, "%6d", p)
		for _, alg := range Algorithms() {
			for _, ds := range dsOrder {
				if v, ok := vals[key{alg, ds, p}]; ok {
					fmt.Fprintf(w, " %14.6f", v)
				} else {
					fmt.Fprintf(w, " %14s", "-")
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// table2Rows is the one HPC-NMF and one Naive run on a fixed divisible
// instance that writeTable2 checks against the exact model: Table 2
// itself is analytical, its text is the artifact.
func table2Rows(cfg Config) ([]Row, error) {
	a := core.WrapDense(datasets.DSYN(1024, 768, cfg.Seed))
	opts := cfg.options(16)
	opts.MaxIter = 2
	var rows []Row
	for _, alg := range []string{AlgHPC2D, AlgNaive} {
		r, err := runOne("DSYN", a, alg, cfg.FixedP, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func writeTable2(w io.Writer, _ Config, rows []Row) {
	m, n, k, p := rows[0].M, rows[0].N, rows[0].K, rows[0].P
	fmt.Fprintln(w, "Paper's asymptotic expressions (dense case):")
	fmt.Fprint(w, costmodel.FormatTable2(costmodel.Table2(m, n, k, p)))

	g := grid.Choose(m, n, p)
	hpc := costmodel.HPCExact(m, n, k, g, int64(m*n/p))
	naive := costmodel.NaiveExact(m, n, k, p, int64(2*m*n/p))
	fmt.Fprintf(w, "\nExact per-iteration critical-path counts from this runtime's collectives (grid %s):\n", gridName(g))
	fmt.Fprintf(w, "%-10s %12s %10s %14s %14s\n", "algorithm", "words", "msgs", "flops(MM)", "flops(Gram)")
	fmt.Fprintf(w, "%-10s %12d %10d %14d %14d\n", "Naive", naive.TotalWords(), naive.TotalMsgs(), naive.FlopsMM, naive.FlopsGram)
	fmt.Fprintf(w, "%-10s %12d %10d %14d %14d\n", "HPC-NMF", hpc.TotalWords(), hpc.TotalMsgs(), hpc.FlopsMM, hpc.FlopsGram)

	words := rows[0].Breakdown.Words
	gotWords := words[perf.TaskAllGather] + words[perf.TaskReduceScatter] + words[perf.TaskAllReduce]
	fmt.Fprintf(w, "\nMeasured HPC-NMF words/iteration: %d (model %d) — %s\n",
		gotWords, hpc.TotalWords(), matchLabel(gotWords == hpc.TotalWords()))
	gotN := rows[1].Breakdown.Words[perf.TaskAllGather]
	fmt.Fprintf(w, "Measured Naive words/iteration:   %d (model %d) — %s\n",
		gotN, naive.TotalWords(), matchLabel(gotN == naive.TotalWords()))
}

func matchLabel(ok bool) string {
	if ok {
		return "EXACT MATCH"
	}
	return "MISMATCH"
}

// GridSweep runs HPC-NMF on every feasible pr×pc factorization of
// cfg.FixedP at rank cfg.FixedK and pairs each shape's measured and
// modeled per-iteration breakdown with the cost model's forecast —
// the predicted-vs-measured table behind `-grid auto`. Rows come back
// cheapest-forecast first, so the first row is the autotuner's pick
// (also flagged via Row.Auto).
func GridSweep(cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	ds, err := datasets.ByName("dsyn", datasets.Scale(cfg.Scale), cfg.Seed)
	if err != nil {
		return nil, err
	}
	k, p := cfg.FixedK, cfg.FixedP
	cands, err := costmodel.Plan(core.GridProblem(ds.Matrix, k), p, perf.Edison())
	if err != nil {
		return nil, err
	}
	var rows []Row
	for i, cand := range cands {
		res, err := core.RunHPC(ds.Matrix, cand.Grid, cfg.options(k))
		if err != nil {
			return nil, fmt.Errorf("%s grid %s: %w", ds.Name, gridName(cand.Grid), err)
		}
		rows = append(rows, Row{
			Dataset:   ds.Name,
			Alg:       "HPC-NMF-" + gridName(cand.Grid),
			K:         k,
			P:         p,
			Breakdown: res.Breakdown,
			Grid:      gridName(cand.Grid),
			Predicted: cand.Seconds,
			Auto:      i == 0,
		})
	}
	return rows, nil
}

// writeGrids prints every factorization of p with the model's forecast
// next to the modeled and measured breakdown totals, the autotuner's
// pick marked.
func writeGrids(w io.Writer, _ Config, rows []Row) {
	fmt.Fprintf(w, "%-8s %14s %14s %14s\n", "grid", "predicted", "modeled", "measured")
	for _, r := range rows {
		mark := ""
		if r.Auto {
			mark = "  <- auto pick"
		}
		fmt.Fprintf(w, "%-8s %14.6f %14.6f %14.6f%s\n",
			r.Grid, r.Predicted, r.Breakdown.ModeledTotal(), r.Breakdown.MeasuredTotal(), mark)
	}
}

// partitionRows reproduces the §7 future-work analysis: the even 2D
// distribution does not load balance the nonzeros of a skewed sparse
// matrix (the Webbase case), which imbalances MM; random row/column
// permutations spread the mass. Its two rows are an HPC-NMF run on the
// original and on the permuted matrix; the first carries the block-nnz
// imbalance before/after as its note.
func partitionRows(cfg Config) ([]Row, error) {
	ds, err := datasets.ByName("webbase", datasets.Scale(cfg.Scale), cfg.Seed)
	if err != nil {
		return nil, err
	}
	a, ok := core.UnwrapSparse(ds.Matrix)
	if !ok {
		return nil, fmt.Errorf("experiments: webbase dataset is not sparse")
	}
	balanced, _, _ := partition.Balance(a, cfg.Seed)
	before, err := runOne(ds.Name, ds.Matrix, AlgHPC2D, cfg.FixedP, cfg.options(cfg.FixedK))
	if err != nil {
		return nil, err
	}
	before.Note = partition.Analyze(a, grid.Choose(a.Rows, a.Cols, cfg.FixedP), cfg.Seed).String()
	after, err := runOne(ds.Name+"-permuted", core.WrapSparse(balanced), AlgHPC2D, cfg.FixedP, cfg.options(cfg.FixedK))
	if err != nil {
		return nil, err
	}
	return []Row{before, after}, nil
}

func writePartition(w io.Writer, _ Config, rows []Row) {
	before, after := rows[0], rows[1]
	fmt.Fprintf(w, "%s\n", before.Note)
	meanMM := 4 * before.NNZ / int64(before.P) * int64(before.K)
	fmt.Fprintf(w, "max-rank MM flops/iter:  original %d, permuted %d (perfect balance %d)\n",
		before.Breakdown.Flops[perf.TaskMM], after.Breakdown.Flops[perf.TaskMM], meanMM)
	fmt.Fprintf(w, "max-rank MM time/iter:   original %.4fs, permuted %.4fs (modeled)\n",
		before.Breakdown.ModeledSeconds[perf.TaskMM], after.Breakdown.ModeledSeconds[perf.TaskMM])
}

// weakScalingRows grows the problem with the machine (m, n ∝ √p so the
// per-rank data volume is constant) — the complement to the paper's
// strong-scaling study. Under the Table 2 model, HPC-NMF's per-rank
// time should stay nearly flat while Naive's grows with the
// (m+n)k²-and-(m+n)k redundant terms. Rows come in (Naive, HPC-NMF-2D)
// pairs, one pair per processor count.
func weakScalingRows(cfg Config) ([]Row, error) {
	var rows []Row
	for _, p := range cfg.Ps {
		// √p scaling keeps m·n/p constant.
		scale := math.Sqrt(float64(p) / float64(cfg.Ps[0]))
		m := int(float64(432)*scale) / p * p // divisible for clean splits
		n := int(float64(288)*scale) / p * p
		if m < p || n < p {
			m, n = p, p
		}
		a := core.WrapDense(datasets.DSYN(m, n, cfg.Seed))
		for _, alg := range []string{AlgNaive, AlgHPC2D} {
			r, err := runOne("DSYN", a, alg, p, cfg.options(cfg.FixedK))
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

func writeWeakScaling(w io.Writer, _ Config, rows []Row) {
	fmt.Fprintf(w, "%6s %10s %10s %8s %12s %12s\n", "p", "m", "n", "grid", "Naive", "HPC-NMF-2D")
	for i := 0; i+1 < len(rows); i += 2 {
		naive, hpc := rows[i], rows[i+1]
		fmt.Fprintf(w, "%6d %10d %10d %7s %12.6f %12.6f\n",
			hpc.P, hpc.M, hpc.N, gridName(grid.Choose(hpc.M, hpc.N, hpc.P)),
			naive.ModeledSeconds(), hpc.ModeledSeconds())
	}
}

// largePRows realizes the paper's §7 wish: "we would like to expand our
// benchmarks to larger numbers of nodes on the same size datasets to
// study performance behavior when communication costs completely
// dominate the running time." Fixed-size SSYN, p up to 1024.
func largePRows(cfg Config) ([]Row, error) {
	ds, err := datasets.ByName("ssyn", datasets.Scale(cfg.Scale), cfg.Seed)
	if err != nil {
		return nil, err
	}
	m, n := ds.Matrix.Dims()
	var rows []Row
	for _, p := range []int{16, 64, 256, 1024} {
		if m < p || n < p {
			break
		}
		r, err := runOne(ds.Name, ds.Matrix, AlgHPC2D, p, cfg.options(cfg.FixedK))
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiments: largep starts at p=16; SSYN at scale %g is only %dx%d", cfg.Scale, m, n)
	}
	return rows, nil
}

func writeLargeP(w io.Writer, _ Config, rows []Row) {
	fmt.Fprintf(w, "%6s %8s %12s %12s %12s %10s\n", "p", "grid", "compute(s)", "comm(s)", "total(s)", "comm-share")
	for _, r := range rows {
		s := r.Breakdown.ModeledSeconds
		compute := s[perf.TaskNLS] + s[perf.TaskMM] + s[perf.TaskGram]
		comm := s[perf.TaskAllGather] + s[perf.TaskReduceScatter] + s[perf.TaskAllReduce]
		total := compute + comm
		share := 0.0
		if total > 0 {
			share = comm / total
		}
		fmt.Fprintf(w, "%6d %7s %12.6f %12.6f %12.6f %9.0f%%\n",
			r.P, gridName(grid.Choose(r.M, r.N, r.P)), compute, comm, total, 100*share)
	}
}

// solversRows addresses the question §7 leaves open: "Because most of the
// time per iteration of HPC-NMF is spent on local NLS, we believe
// further empirical exploration is necessary to confirm the advantages
// of BPP in the parallel case." For each local solver (one row, named
// after it) it reports the per-iteration cost, the error trajectory,
// and — the metric that decides the trade — the total modeled time to
// reach within 2% of the best final error any solver achieves.
func solversRows(cfg Config) ([]Row, error) {
	ds, err := datasets.ByName("dsyn", datasets.Scale(cfg.Scale), cfg.Seed)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, kind := range []core.SolverKind{core.SolverBPP, core.SolverActiveSet, core.SolverHALS, core.SolverMU, core.SolverPGD} {
		opts := cfg.options(cfg.FixedK)
		opts.MaxIter, opts.Solver, opts.Sweeps, opts.ComputeError = solversIters, kind, 2, true
		r, err := runOne(ds.Name, ds.Matrix, algAuto, cfg.FixedP, opts)
		if err != nil {
			// A solver hitting its budget is itself a finding worth
			// reporting, not a reason to abort the comparison.
			r.Breakdown, r.Note = &perf.Breakdown{}, fmt.Sprintf("failed: %v", err)
		}
		r.Alg = kind.String()
		rows = append(rows, r)
	}
	return rows, nil
}

func writeSolvers(w io.Writer, _ Config, rows []Row) {
	var ran []Row
	bestFinal := math.Inf(1)
	for _, r := range rows {
		if r.Note != "" {
			fmt.Fprintf(w, "%-10s %s\n", r.Alg, r.Note)
			continue
		}
		ran = append(ran, r)
		bestFinal = math.Min(bestFinal, r.RelErr[len(r.RelErr)-1])
	}
	target := bestFinal * 1.02
	fmt.Fprintf(w, "%-10s %14s %12s %12s %16s\n", "solver", "modeled-s/iter", "final-err", "iters@tgt", "time-to-target")
	for _, r := range ran {
		itStr, timeStr := "-", "-"
		for i, e := range r.RelErr {
			if e <= target {
				itStr = fmt.Sprintf("%d", i+1)
				timeStr = fmt.Sprintf("%.6f", float64(i+1)*r.ModeledSeconds())
				break
			}
		}
		fmt.Fprintf(w, "%-10s %14.6f %12.6f %12s %16s\n",
			r.Alg, r.ModeledSeconds(), r.RelErr[len(r.RelErr)-1], itStr, timeStr)
	}
	fmt.Fprintf(w, "(target = best final error × 1.02 = %.6f; '-' = never reached)\n", target)
}

// hadoopQualRows reproduces the §6.2 qualitative comparison: MU on a large
// sparse matrix, to contrast with the cited ~50 min/iteration Hadoop
// figure (the paper's own run took ~1 s on 24 nodes at 10× this scale
// in every dimension).
func hadoopQualRows(cfg Config) ([]Row, error) {
	m, n := 1<<14, 1<<13
	nnzTarget := 2e8 / 100 // paper's 2·10⁸ nonzeros, scaled like the dims
	a := core.WrapSparse(datasets.SSYN(m, n, nnzTarget/float64(m)/float64(n), cfg.Seed))
	opts := cfg.options(8)
	opts.Solver = core.SolverMU
	r, err := runOne("SSYN", a, algAuto, 16, opts)
	if err != nil {
		return nil, err
	}
	return []Row{r}, nil
}

func writeHadoopQual(w io.Writer, _ Config, rows []Row) {
	fmt.Fprintf(w, "per-iteration modeled time:  %.4f s\n", rows[0].ModeledSeconds())
	fmt.Fprintf(w, "per-iteration measured time: %.4f s\n", rows[0].MeasuredSeconds())
	fmt.Fprintf(w, "(paper: Hadoop MU took ~50 min/iteration at 100x this nnz; the\n")
	fmt.Fprintf(w, " in-memory MPI-style implementation stays in the seconds range.)\n")
}
