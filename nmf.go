// Package hpcnmf is a Go reproduction of "A High-Performance Parallel
// Algorithm for Nonnegative Matrix Factorization" (Kannan, Ballard,
// Park — PPoPP 2016). It factorizes a non-negative matrix A (m×n)
// into non-negative low-rank factors W (m×k) and H (k×n) minimizing
// ‖A − WH‖_F, using the alternating non-negative least squares (ANLS)
// framework with a choice of local solvers (BPP, HALS, MU, PGD),
// sequentially or in parallel.
//
// The parallel algorithms run on an in-process message-passing
// runtime that mirrors MPI (each rank is a goroutine; collectives use
// the real distributed algorithms), so the communication structure —
// message and word counts per rank — is exactly that of the paper's
// MPI implementation. Results carry a per-iteration task breakdown in
// both measured wall time and α-β-γ modeled time.
//
// Quick start:
//
//	a, err := hpcnmf.GenerateDataset("dsyn", 0.1, 42)
//	// handle err
//	res, err := hpcnmf.RunParallel(a.Matrix, 16, hpcnmf.Options{K: 10, MaxIter: 20, ComputeError: true})
//	// res.W, res.H, res.RelErr, res.Breakdown
package hpcnmf

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hpcnmf/internal/core"
	"hpcnmf/internal/costmodel"
	"hpcnmf/internal/datasets"
	"hpcnmf/internal/fault"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/metrics"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/ooc"
	"hpcnmf/internal/partition"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
	"hpcnmf/internal/store"
	"hpcnmf/internal/trace"
)

// Dense is a row-major dense matrix (see the methods on mat.Dense).
type Dense = mat.Dense

// CSR is a compressed-sparse-row matrix.
type CSR = sparse.CSR

// Matrix is the data matrix, dense (WrapDense) or CSR (WrapSparse);
// it has no other implementation.
type Matrix = core.Matrix

// Options configures a factorization run.
type Options = core.Options

// Result reports a finished factorization: factors, error history,
// and the per-iteration task breakdown.
type Result = core.Result

// Grid is a pr×pc processor grid for RunOnGrid.
type Grid = grid.Grid

// SolverKind selects the local non-negative least squares method.
type SolverKind = core.SolverKind

// Local NLS solvers (paper §4). Each is a row of the one built-in
// solver table (internal/nnls Methods), which holds its name,
// constructor and cost-model price; a SolverKind is the row's index.
// BPP, row 0, is the default and the paper's choice.
const (
	SolverBPP  = core.SolverBPP
	SolverMU   = core.SolverMU
	SolverHALS = core.SolverHALS
	SolverPGD  = core.SolverPGD
)

// ParseSolver maps the name of any row of the solver table, in any
// letter case, to its SolverKind.
func ParseSolver(name string) (SolverKind, error) { return core.ParseSolver(name) }

// Updater is the algorithm plug-in seam of the drivers' shared
// communication skeleton (the MPI-FAUN framework generalization; see
// DESIGN decision 14): the skeleton owns the collectives, the
// Gram/cross-product pipeline, checkpointing, and tracing,
// and the updater supplies only the local factor update from the
// precomputed Gram and right-hand side. An Updater is an NNLS solver:
// it implements Name and SolveCtx, which the skeleton calls with the
// iterate as both warm start and destination. The built-in solvers
// (the rows of the table behind SolverKind) enter through
// Options.Solver; a custom rule plugs in via the Options.Update
// per-rank factory.
type Updater = core.Updater

// Observability: traces, metrics, and run reports (see README
// "Observability"). Enable tracing with Options.TraceEvents and read
// Result.Trace; attach a MetricsRegistry via Options.Metrics; build a
// Report from any finished Result with NewReport.

// Trace is a merged per-rank event timeline (Options.TraceEvents);
// write it with WriteChrome/WriteChromeFile and open in Perfetto.
type Trace = trace.Trace

// MetricsRegistry collects counters, gauges, and latency histograms
// from a run; it is safe for concurrent use across rank goroutines.
// WritePrometheus renders it in the Prometheus text exposition format.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry for
// Options.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Progress is one iteration's convergence-telemetry record, delivered
// through Options.Progress and collected into Result.Progress.
type Progress = core.Progress

// Report is the versioned machine-readable record of one run.
type Report = core.Report

// DatasetInfo describes the factorized matrix inside a Report.
type DatasetInfo = core.DatasetInfo

// DescribeMatrix builds the DatasetInfo for a data matrix.
func DescribeMatrix(name string, a Matrix) DatasetInfo { return core.DescribeMatrix(name, a) }

// NewReport assembles the run report for a finished Result. p is the
// processor count (1 for sequential); tracePath may be empty.
func NewReport(ds DatasetInfo, p int, opts Options, res *Result, tracePath string) *Report {
	return core.NewReport(ds, p, opts, res, tracePath)
}

// ParseReport reads a report written by Report.WriteJSON.
func ParseReport(r io.Reader) (*Report, error) { return core.ParseReport(r) }

// Fault tolerance: deterministic fault injection, typed rank-failure
// errors, and checkpoint/restart (see README "Fault tolerance").

// FaultInjector delays, drops, or kills ranks at chosen collective
// call-sites; arm one via Options.Fault. Build it from a spec string
// with ParseFault or programmatically with fault.New.
type FaultInjector = fault.Injector

// ParseFault builds a fault injector from a ';'-separated spec string,
// e.g. "kill:AllReduce:rank=2:call=3" or "delay:AllGather:rank=1:d=50ms"
// (see internal/fault for the grammar).
func ParseFault(spec string) (*FaultInjector, error) { return fault.Parse(spec) }

// RankFailedError is the typed error every surviving rank observes
// when a rank dies or a communication deadline expires; retrieve it
// from a failed run's error with errors.As to attribute the failure.
type RankFailedError = mpi.RankFailedError

// Failure causes carried inside a RankFailedError (match with errors.Is).
var (
	ErrInjectedKill = mpi.ErrInjectedKill
	ErrCommDeadline = mpi.ErrDeadline
)

// Checkpoint is a restartable factorization snapshot (factors plus a
// versioned header). Enable periodic checkpointing with
// Options.CheckpointDir / Options.CheckpointEvery; load one with
// LoadCheckpoint and continue it by rewriting the options with
// Checkpoint.Resume — the resumed run recomputes the remaining
// iterations bitwise-identically to an uninterrupted one.
type Checkpoint = core.Checkpoint

// CheckpointMeta is the checkpoint's versioned header.
type CheckpointMeta = core.CheckpointMeta

// ErrCheckpointVersion is wrapped by LoadCheckpoint when the file was
// written under another checkpoint version (another header schema,
// framing or kernel arithmetic — version 2 files have no CRC); match
// it with errors.Is. The version is checked before the CRC.
var ErrCheckpointVersion = core.ErrCheckpointVersion

// LoadCheckpoint reads dir/checkpoint.bin written by a checkpointing
// run. The file ends in a CRC-32C over every byte before it: a flipped
// bit is an error, never a checkpoint that resumes a different run.
func LoadCheckpoint(dir string) (*Checkpoint, error) { return core.LoadCheckpoint(dir) }

// WriteCheckpoint atomically replaces dir/checkpoint.bin.
func WriteCheckpoint(dir string, ck *Checkpoint) error { return core.WriteCheckpoint(dir, ck) }

// NewDense returns a zero dense matrix with the given shape.
func NewDense(rows, cols int) *Dense { return mat.NewDense(rows, cols) }

// DenseFromRows builds a dense matrix from row slices.
func DenseFromRows(rows [][]float64) *Dense { return mat.FromRows(rows) }

// WrapDense adapts a dense matrix as the data-matrix input.
func WrapDense(d *Dense) Matrix { return core.WrapDense(d) }

// WrapSparse adapts a CSR matrix as the data-matrix input.
func WrapSparse(s *CSR) Matrix { return core.WrapSparse(s) }

// UnwrapDense returns the dense matrix behind a WrapDense value
// (nil, false for CSR-backed inputs).
func UnwrapDense(a Matrix) (*Dense, bool) { return core.UnwrapDense(a) }

// UnwrapSparse returns the CSR matrix behind a WrapSparse value
// (nil, false for dense-backed inputs).
func UnwrapSparse(a Matrix) (*CSR, bool) { return core.UnwrapSparse(a) }

// SparseFromCoords builds a CSR matrix from coordinate entries.
func SparseFromCoords(rows, cols int, entries []sparse.Coord) *CSR {
	return sparse.FromCoords(rows, cols, entries)
}

// Coord is a coordinate-format sparse entry.
type Coord = sparse.Coord

// ReadMatrixMarket parses a MatrixMarket file of either layout: a
// coordinate file (general or symmetric, whose mirrored half it fills
// in) or an array file, which comes back with every entry stored so
// ToDense gives the matrix exactly.
func ReadMatrixMarket(r io.Reader) (*CSR, error) { return sparse.ReadMatrixMarket(r) }

// factorMagic names a factor file: a store container with one block.
const factorMagic = "HPNMFF01"

// factorHeader is a factor file's JSON header. It is constant, so equal
// factors make byte-identical files.
type factorHeader struct {
	Version int `json:"version"`
}

// SaveFactor writes a factor matrix to path as a CRC-32C store
// container holding one block. The file is replaced atomically: a
// reader sees the old file or the new one, never a torn one.
func SaveFactor(path string, f *Dense) error {
	return store.ReplaceFile(filepath.Dir(path), filepath.Base(path), func(w io.Writer) error {
		return store.WriteContainer(w, factorMagic, factorHeader{Version: 1}, f)
	})
}

// LoadFactor reads a factor matrix written by SaveFactor. A file with
// a flipped bit, or cut short, is refused; a flip past the header
// wraps store.ErrChecksum.
func LoadFactor(path string) (*Dense, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var hdr factorHeader
	blocks, err := store.DecodeContainer(data, factorMagic, &hdr, func() error {
		if hdr.Version != 1 {
			return fmt.Errorf("version %d, want 1", hdr.Version)
		}
		return nil
	}, 1)
	if err != nil {
		return nil, fmt.Errorf("hpcnmf: factor file %s: %w", path, err)
	}
	return blocks[0], nil
}

// Run factorizes A ≈ W·H sequentially (ANLS, Algorithm 1).
func Run(a Matrix, opts Options) (*Result, error) { return core.RunSequential(a, opts) }

// Out-of-core factorization: datasets larger than RAM live in a tiled
// on-disk format (written by WriteTiled or `datagen -tiled`) and are
// streamed in row panels through a prefetch pipeline that loads tile
// t+1 while the updater consumes tile t (see README "Out-of-core
// datasets" and DESIGN decision 15).

// TileFile is an open out-of-core tile file.
type TileFile = ooc.File

// OOCStats is the tile-I/O accounting of an out-of-core run
// (Result.OOC): bytes streamed, loader vs wait time, and the fraction
// of I/O hidden behind compute.
type OOCStats = core.OOCStats

// TileBackendReaderAt names the one tile reader, for OpenTiledBackend.
const TileBackendReaderAt = "readerat"

// DefaultTileDepth is the default prefetch depth of the out-of-core
// tile pipeline: tiles loaded ahead of the one being consumed.
const DefaultTileDepth = ooc.DefaultDepth

// OpenTiled opens a tile file and checks all of it first: the
// container framing, the exact length and the CRC-32C over every
// byte, so a flipped bit anywhere is refused here rather than
// factorized. budget (bytes) sizes the row panels: the tallest whose
// DefaultTileDepth+1 buffers fit it, ~8 MiB ones when budget ≤ 0, and
// an error when it cannot hold that many one-row panels. Each tile is
// read with one ReadAt into the prefetch pipeline's own buffers, so
// those buffers are all the run keeps resident, and a file that
// shrinks mid-run is an error wrapping io.ErrUnexpectedEOF.
func OpenTiled(path string, budget int64) (*TileFile, error) { return ooc.Open(path, budget) }

// OpenTiledBackend is OpenTiled(path, 0) for callers that still name
// the reader: backend must be TileBackendReaderAt, and any other value
// is an error.
func OpenTiledBackend(path, backend string) (*TileFile, error) {
	if backend != TileBackendReaderAt {
		return nil, fmt.Errorf("hpcnmf: unknown tile backend %q (the one reader is %q)", backend, TileBackendReaderAt)
	}
	return ooc.Open(path, 0)
}

// WriteTiled writes an in-core dense matrix as a tile file. The file
// fixes no panel height — OpenTiled picks it from the reader's budget
// — so tileRows must be ≤ 0; a positive value is an error.
func WriteTiled(path string, d *Dense, tileRows int) error {
	return ooc.WriteMatrix(path, d, tileRows)
}

// RunOutOfCore factorizes a tile file with the streaming sequential
// skeleton: factors stay in memory, A is read in row panels — once per
// iteration — with prefetch depth tiles in flight (≤ 0 picks double
// buffering). The result — factors and error history — is bitwise identical to Run on
// the same matrix for every built-in updater, any tile size, and any
// KernelThreads; Result.OOC reports how much tile I/O was hidden
// behind compute.
func RunOutOfCore(f *TileFile, depth int, opts Options) (*Result, error) {
	return core.RunOutOfCore(f, depth, opts)
}

// DescribeTiled builds the DatasetInfo for a tile file without
// touching its payload.
func DescribeTiled(name string, f *TileFile) DatasetInfo { return core.DescribeTiled(name, f) }

// RunNaive factorizes in parallel with the naive double-partitioned
// algorithm (Algorithm 2) on p simulated ranks — the baseline whose
// communication volume HPC-NMF improves on.
func RunNaive(a Matrix, p int, opts Options) (*Result, error) { return core.RunNaive(a, p, opts) }

// RunParallel factorizes with HPC-NMF (Algorithm 3) on p simulated
// ranks on the grid AutoGrid names: the α-β-γ cost model prices every
// feasible pr×pc factorization of p under Options.Model and the run
// uses the cheapest (Result.Grid, Result.GridAuto and
// Result.GridPredictedSeconds record the choice and its forecast).
// When the feasibility rule k ≤ min(m/pr, n/pc) rejects every
// factorization, it runs on ChooseGrid's closed-form grid with
// GridAuto false, so small problems still run.
func RunParallel(a Matrix, p int, opts Options) (*Result, error) {
	return core.RunParallelAuto(a, p, opts)
}

// RunOnGrid factorizes with HPC-NMF on an explicit pr×pc grid.
// Use pr=p, pc=1 for the paper's HPC-NMF-1D variant. A non-positive
// dimension is an error.
func RunOnGrid(a Matrix, pr, pc int, opts Options) (*Result, error) {
	return core.RunHPC(a, Grid{PR: pr, PC: pc}, opts)
}

// ChooseGrid returns the communication-minimizing grid for an m×n
// matrix on p processors by the paper's closed-form rule
// (m/pr ≈ n/pc).
func ChooseGrid(m, n, p int) Grid { return grid.Choose(m, n, p) }

// ErrNoFeasibleGrid is wrapped by the error of AutoGrid, PredictGrids
// and AdviseAlgorithmGrid when no pr×pc factorization of p passes the
// feasibility rules pr ≤ m, pc ≤ n, k ≤ min(m/pr, n/pc); match with
// errors.Is. Next to that error they still return the grid RunParallel
// falls back to, ChooseGrid's.
var ErrNoFeasibleGrid = grid.ErrNoFeasibleGrid

// plan makes the grid decision for factorizing a at rank k on p ranks
// under Edison-like machine constants, Options.Model's default — so
// for default options row 0 is the grid RunParallel runs on and its
// Seconds the run's Result.GridPredictedSeconds. Every selector below
// reads this one slice.
func plan(a Matrix, k, p int) (costmodel.Problem, []GridCandidate, error) {
	pb := core.GridProblem(a, k)
	ranked, err := costmodel.Plan(pb, p, perf.Edison())
	return pb, ranked, err
}

// AutoGrid names the grid RunParallel runs on: the feasible pr×pc
// factorization of p with the minimum modeled per-iteration time —
// the §5.2 grid analysis as a procedure. A sparse matrix is priced at
// each candidate's heaviest block, an O(nnz) scan per candidate.
func AutoGrid(a Matrix, k, p int) (Grid, error) {
	_, ranked, err := plan(a, k, p)
	if len(ranked) == 0 {
		return Grid{}, err
	}
	return ranked[0].Grid, err
}

// GridCandidate pairs one grid with its modeled per-iteration cost in
// seconds (see PredictGrids).
type GridCandidate = costmodel.GridCandidate

// PredictGrids prices every feasible pr×pc factorization of p under
// the cost model and returns them cheapest first — the table AutoGrid
// reads row 0 of, useful for auditing why a grid was picked.
func PredictGrids(a Matrix, k, p int) ([]GridCandidate, error) {
	_, ranked, err := plan(a, k, p)
	return ranked, err
}

// Advice is a per-algorithm cost forecast from the α-β-γ model.
type Advice = costmodel.Advice

// Advise predicts the per-iteration cost of Naive, HPC-NMF-1D (the
// p×1 grid, when feasible) and HPC-NMF on AutoGrid's grid, ranked
// fastest first — the quantitative form of the paper's
// algorithm-selection guidance. Invalid k or p yields nil.
func Advise(a Matrix, k, p int) []Advice {
	pb, ranked, _ := plan(a, k, p)
	return costmodel.Advise(pb, ranked, perf.Edison())
}

// AlgorithmGridChoice is one row of the joint algorithm × grid
// forecast: an update rule on AutoGrid's grid, with both the
// per-iteration price and the iterations-to-tolerance-scaled total.
type AlgorithmGridChoice = costmodel.AlgorithmGridChoice

// AdviseAlgorithmGrid prices every row of the solver table that has a
// price on AutoGrid's grid: the row's NLS flop coefficients are added
// to the skeleton forecast and the total is scaled by its relative
// iterations-to-tolerance. Rows come back cheapest first — the ranking
// behind `nmfrun -alg auto`'s updater pick.
func AdviseAlgorithmGrid(a Matrix, k, p int) ([]AlgorithmGridChoice, error) {
	pb, ranked, err := plan(a, k, p)
	if len(ranked) == 0 {
		return nil, err
	}
	return costmodel.AlgorithmGrid(pb, ranked[0], perf.Edison()), err
}

// Projector projects new data columns onto a fixed basis W — the
// H-subproblem NNLS solve with W frozen, off a cached WᵀW Gram. It is
// the shared cheap-serve path of the streaming factorizer and the
// internal/serve batching layer, and degrades gracefully (Tikhonov
// damping) when the basis is rank-deficient. ProjectInto is its one
// projection call: it writes into a k×c destination the caller owns.
type Projector = core.Projector

// NewProjector caches the Gram of basis w and prepares reusable solver
// resources; the zero SolverKind is BPP, and sweeps applies to the
// inexact solvers. The returned projector is single-goroutine (it owns
// a workspace arena).
func NewProjector(w *Dense, kind SolverKind, sweeps int) (*Projector, error) {
	return core.NewProjector(w, kind.New(sweeps), nil)
}

// Streaming maintains an NMF of a sliding window of data columns —
// the incremental video scenario of §6.1.1. Push new columns as they
// arrive; read Factors, RelErr, and per-column Residual /
// ForegroundEnergy.
type Streaming = core.Streaming

// StreamingOptions configures a Streaming factorizer.
type StreamingOptions = core.StreamingOptions

// NewStreaming creates a sliding-window factorizer for m-row columns.
func NewStreaming(m int, opts StreamingOptions) (*Streaming, error) {
	return core.NewStreaming(m, opts)
}

// Dataset is a generated evaluation workload.
type Dataset = datasets.Dataset

// BagOfWordsSpec parameterizes GenerateBagOfWords.
type BagOfWordsSpec = datasets.BagOfWordsSpec

// GenerateBagOfWords builds a synthetic term-document count matrix
// with planted topics and Zipf word frequencies — the text-mining
// workload of the paper's introduction. The planted topic of document
// j is (j·Topics)/Docs.
func GenerateBagOfWords(spec BagOfWordsSpec, seed uint64) *CSR {
	return datasets.BagOfWords(spec, seed)
}

// GenerateDataset builds one of the paper's four evaluation workloads
// ("dsyn", "ssyn", "video", "webbase") at the given scale (1.0 =
// harness defaults; smaller shrinks proportionally, and a scale ≤ 0
// means 1). An unknown name, a NaN or ±Inf scale and one whose
// dimensions overflow an int are errors naming the value.
func GenerateDataset(name string, scale float64, seed uint64) (Dataset, error) {
	return datasets.ByName(name, datasets.Scale(scale), seed)
}

// BalanceReport summarizes nonzero load imbalance of a 2D block
// distribution before and after random-permutation balancing.
type BalanceReport = partition.Report

// AnalyzeBalance measures the per-block nonzero imbalance of a sparse
// matrix on the grid chosen for p processors, and the improvement a
// random row/column permutation would give (§7: load balancing the
// 2D distribution of skewed sparse matrices).
func AnalyzeBalance(a *CSR, p int, seed uint64) BalanceReport {
	g := ChooseGrid(a.Rows, a.Cols, p)
	return partition.Analyze(a, g, seed)
}

// BalanceSparse applies random row and column permutations to spread
// heavy rows/columns across grid blocks. It returns the permuted
// matrix and the row/column mappings (Forward[old] = new) needed to
// map factor matrices back: row i of the original corresponds to row
// rowMap[i] of a factorization of the permuted matrix.
func BalanceSparse(a *CSR, seed uint64) (balanced *CSR, rowMap, colMap []int) {
	b, rp, cp := partition.Balance(a, seed)
	return b, rp.Forward, cp.Forward
}

// NewRandomStream exposes the library's deterministic PRNG for
// callers who want reproducible synthetic data compatible with the
// generators in this module.
func NewRandomStream(seed uint64) *rng.Stream { return rng.New(seed) }
