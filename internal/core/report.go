package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/metrics"
	"hpcnmf/internal/perf"
)

// ReportVersion identifies the run-report JSON schema. Bump on any
// incompatible change so downstream diff tooling can refuse mixed
// comparisons. Version history:
//
//	1 — initial schema
//	2 — adds the per-iteration "progress" telemetry series; later
//	    also gains dataset.storage, kernel_isa, the top-level
//	    "updater" recording the algorithm plug-in the skeleton ran,
//	    and the "ooc" tile-I/O section of out-of-core runs (all pure
//	    additions)
const ReportVersion = 2

// DatasetInfo describes the factorized matrix in a run report.
type DatasetInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	NNZ  int64  `json:"nnz"`
	// Storage records which compute path the run took: "sparse" (CSR
	// kernels) or "dense" (blocked dense kernels). Recorded since the
	// drivers choose per storage kind and nmfrun now auto-detects it.
	Storage string `json:"storage,omitempty"`
}

// DescribeMatrix builds the DatasetInfo for a data matrix.
func DescribeMatrix(name string, a Matrix) DatasetInfo {
	m, n := a.Dims()
	storage := "dense"
	if _, ok := UnwrapSparse(a); ok {
		storage = "sparse"
	}
	return DatasetInfo{Name: name, Rows: m, Cols: n, NNZ: int64(a.NNZ()), Storage: storage}
}

// ReportOptions is the subset of Options recorded in reports (the
// knobs that determine the run, in JSON-friendly form).
type ReportOptions struct {
	K            int     `json:"k"`
	MaxIter      int     `json:"max_iter"`
	Tol          float64 `json:"tol,omitempty"`
	TolGrad      float64 `json:"tol_grad,omitempty"`
	Solver       string  `json:"solver"`
	Sweeps       int     `json:"sweeps"`
	Seed         uint64  `json:"seed"`
	ComputeError bool    `json:"compute_error"`
	L2W          float64 `json:"l2w,omitempty"`
	L1W          float64 `json:"l1w,omitempty"`
	L2H          float64 `json:"l2h,omitempty"`
	L1H          float64 `json:"l1h,omitempty"`
}

// Report is the versioned machine-readable record of one NMF run:
// what was factorized, how, how it converged, and where the time
// went — per task (aggregated like perf.Breakdown) and per rank.
// Reports replace print-only output so runs can be stored, diffed,
// and regression-checked mechanically.
type Report struct {
	Version    int         `json:"version"`
	Dataset    DatasetInfo `json:"dataset"`
	Algorithm  string      `json:"algorithm"`
	Processors int         `json:"processors"`

	// Updater names the algorithm plug-in the communication skeleton
	// ran ("BPP", "MU", ...; see core.Updater). For solver-derived
	// updaters it matches options.solver, which is kept for schema
	// compatibility; a custom Options.Update factory surfaces only
	// here.
	Updater string `json:"updater,omitempty"`

	// Grid is the processor grid of an HPC run ("2x4"; empty for
	// sequential and naive runs), GridAuto whether the cost-model
	// autotuner chose it, and GridPredictedSeconds the tuner's modeled
	// per-iteration forecast — read next to measured_total_seconds for
	// the predicted-vs-measured audit.
	Grid                 string  `json:"grid,omitempty"`
	GridAuto             bool    `json:"grid_auto,omitempty"`
	GridPredictedSeconds float64 `json:"grid_predicted_seconds,omitempty"`

	// KernelISA records the kernel dispatch level the run executed
	// under ("generic" or "avx2") — results are bitwise identical
	// across both, so this only matters for auditing performance
	// numbers.
	KernelISA string `json:"kernel_isa,omitempty"`

	Options    ReportOptions `json:"options"`
	Iterations int           `json:"iterations"`
	// RelErr is the per-iteration convergence history (empty unless
	// the run computed the objective).
	RelErr []float64 `json:"rel_err,omitempty"`
	// Progress is the per-iteration convergence-telemetry series
	// (iteration, relative error, elapsed and per-phase seconds) when
	// the run collected it (schema v2+).
	Progress []Progress `json:"progress,omitempty"`

	// Tasks is the per-iteration aggregate task breakdown, keyed by
	// the paper-legend task names; the totals restate
	// perf.Breakdown.{Measured,Modeled}Total.
	Tasks                map[string]perf.TaskCost `json:"tasks"`
	ModeledTotalSeconds  float64                  `json:"modeled_total_seconds"`
	MeasuredTotalSeconds float64                  `json:"measured_total_seconds"`
	// UnattributedSeconds is the per-iteration step wall time no task
	// above was charged for (max over ranks); measured_total_seconds +
	// unattributed_seconds is the iteration on a single rank.
	UnattributedSeconds float64 `json:"unattributed_seconds,omitempty"`

	// PerRank exposes the rank skew the aggregate view maxes away.
	PerRank []perf.RankStats `json:"per_rank,omitempty"`

	// OOC is the tile-I/O accounting of an out-of-core run (schema
	// v2+, pure addition): tile geometry, prefetch depth, bytes streamed, and
	// the load/wait/hidden-fraction split showing how much I/O the
	// prefetch pipeline overlapped with compute.
	OOC *OOCStats `json:"ooc,omitempty"`

	// Metrics is the registry snapshot when the run had one attached.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// TracePath records where the Chrome trace was written, if
	// anywhere, so the report links the run to its timeline.
	TracePath string `json:"trace_path,omitempty"`
}

// NewReport assembles the report for a finished run. p is the
// processor count (1 for sequential); tracePath may be empty. When
// opts.Metrics is set its snapshot is embedded.
func NewReport(ds DatasetInfo, p int, opts Options, res *Result, tracePath string) *Report {
	rep := &Report{
		Version:    ReportVersion,
		Dataset:    ds,
		Algorithm:  res.Algorithm,
		Processors: p,
		Updater:    opts.updaterName(),
		Options: ReportOptions{
			K:            opts.K,
			MaxIter:      opts.MaxIter,
			Tol:          opts.Tol,
			TolGrad:      opts.TolGrad,
			Solver:       opts.Solver.String(),
			Sweeps:       opts.Sweeps,
			Seed:         opts.Seed,
			ComputeError: opts.ComputeError,
			L2W:          opts.L2W,
			L1W:          opts.L1W,
			L2H:          opts.L2H,
			L1H:          opts.L1H,
		},
		Iterations:           res.Iterations,
		KernelISA:            mat.ISA(),
		GridAuto:             res.GridAuto,
		GridPredictedSeconds: res.GridPredictedSeconds,
		RelErr:               res.RelErr,
		Progress:             res.Progress,
		Tasks:                res.Breakdown.ByTask(),
		ModeledTotalSeconds:  res.Breakdown.ModeledTotal(),
		MeasuredTotalSeconds: res.Breakdown.MeasuredTotal(),
		UnattributedSeconds:  res.Breakdown.UnattributedSeconds,
		PerRank:              res.PerRank,
		OOC:                  res.OOC,
		TracePath:            tracePath,
	}
	if res.Grid.PR > 0 {
		rep.Grid = fmt.Sprintf("%dx%d", res.Grid.PR, res.Grid.PC)
	}
	if opts.Metrics != nil {
		rep.Metrics = opts.Metrics.Snapshot()
	}
	return rep
}

// WriteJSON writes the report as indented JSON. encoding/json sorts
// map keys, so output is byte-stable for identical runs.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path.
func (r *Report) WriteJSONFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ParseReport reads a report written by WriteJSON, rejecting every
// schema version but ReportVersion (no writer of an older one remains).
func ParseReport(rd io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return nil, fmt.Errorf("core: parsing run report: %w", err)
	}
	if rep.Version != ReportVersion {
		return nil, fmt.Errorf("core: run report version %d, this build reads %d", rep.Version, ReportVersion)
	}
	return &rep, nil
}
