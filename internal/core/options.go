package core

import (
	"fmt"
	"math"
	"time"

	"hpcnmf/internal/fault"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/metrics"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/par"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
)

// SolverKind selects the local NLS method (the paper's "flexibility"
// axis, §1): the alternating framework is identical, only the local
// solve changes. A kind is the index of its row in nnls.Methods, and
// the constants below follow that table's order. Checkpoints, reports
// and the wire carry the name, never the number.
type SolverKind int

const (
	// SolverBPP is block principal pivoting (§4.2), the paper's default.
	SolverBPP SolverKind = iota
	// SolverActiveSet is the classical Lawson–Hanson method.
	SolverActiveSet
	// SolverHALS is hierarchical alternating least squares (Eq. 4).
	SolverHALS
	// SolverMU is the multiplicative update rule (Eq. 3).
	SolverMU
	// SolverPGD is projected gradient descent (Lin 2007).
	SolverPGD
)

// String returns the solver's display name, its row's name.
func (k SolverKind) String() string {
	if k < 0 || int(k) >= len(nnls.Methods) {
		return fmt.Sprintf("SolverKind(%d)", int(k))
	}
	return nnls.Methods[k].Name
}

// ParseSolver maps a solver name as flags and wire requests spell it —
// any row name of nnls.Methods, in any letter case — to its kind.
func ParseSolver(name string) (SolverKind, error) {
	i, err := nnls.Find(name)
	return SolverKind(i), err
}

// New instantiates the solver; sweeps applies to the inexact methods.
func (k SolverKind) New(sweeps int) nnls.Solver { return nnls.Methods[k].New(sweeps) }

// Options configures an NMF run. The zero value is not valid; use
// DefaultOptions or fill K at minimum.
type Options struct {
	// K is the factorization rank (required, ≥ 1).
	K int
	// MaxIter bounds alternating iterations (default 30).
	MaxIter int
	// Tol stops early when the relative error decreases by less than
	// Tol between iterations (requires ComputeError). ≤ 0 disables.
	Tol float64
	// TolGrad stops when the projected-gradient norm of the
	// H-subproblem falls below TolGrad times ‖WᵀA‖_F (the natural
	// gradient scale) — the convergence test of Lin (2007), computed
	// from iteration byproducts at negligible cost (requires
	// ComputeError). ≤ 0 disables.
	TolGrad float64
	// Solver selects the local NLS method (default BPP).
	Solver SolverKind
	// Update, when non-nil, supplies a custom algorithm plug-in for
	// the drivers' shared communication skeleton instead of the
	// Solver-derived one (see Updater and DESIGN decision 14). The
	// factory is invoked once per rank goroutine — each rank owns a
	// private updater instance, the single-goroutine contract that
	// lets updaters keep working sets (nnls.ContextSolver state)
	// across iterations. Checkpoints record Updater.Name() and resume
	// validates it, so a custom updater must keep a stable name.
	Update func() Updater
	// Sweeps is the inner sweep count for the inexact solvers (default 1).
	Sweeps int
	// Seed drives the deterministic, layout-independent factor
	// initialization (§6.1.3).
	Seed uint64
	// KernelThreads sizes the shared worker pool under the dense and
	// sparse compute kernels (see internal/par): each kernel call
	// splits its output rows across up to KernelThreads OS threads.
	// The pool is shared by all rank goroutines of a run, mirroring a
	// threaded BLAS under each MPI rank. ≤ 1 (the default) runs every
	// kernel inline on its rank goroutine, which is also the
	// configuration whose steady-state iterations allocate nothing.
	// Results are bitwise identical for every value: no knob here, and
	// no kernel dispatch level, changes the arithmetic.
	KernelThreads int
	// ComputeError computes the relative objective each iteration.
	// It adds a small all-reduce per iteration (the "global
	// aggregation for residual" of §5) plus one local Gram product.
	ComputeError bool
	// InitW and InitH supply explicit initial factors (m×K and K×n)
	// instead of the default element-addressed random init — e.g. the
	// output of NNDSVD. The parallel algorithms slice the provided
	// matrices deterministically, so with explicit init a parallel
	// run still computes the same iterates as a sequential one.
	InitW, InitH *mat.Dense
	// Regularization extends the objective to
	//   ‖A−WH‖²_F + L2W·‖W‖²_F + L1W·Σᵢⱼ Wᵢⱼ + L2H·‖H‖²_F + L1H·Σᵢⱼ Hᵢⱼ
	// (the sparse-NMF variant of Kim & Park that the paper cites as
	// an application [10]; L1 promotes sparse factors, L2 bounds
	// them). Implemented exactly in the normal equations — the Gram
	// gains λ₂ on the diagonal, the right-hand side loses λ₁/2 — so
	// every algorithm and solver supports it uniformly. All must be
	// ≥ 0.
	L2W, L1W, L2H, L1H float64
	// Model supplies α-β-γ constants for the modeled breakdown;
	// the zero value means perf.Edison().
	Model perf.Model
	// TraceEvents enables the per-rank event tracer: every collective
	// and iteration phase is recorded as a timed span, and
	// Result.Trace carries the merged timeline (exportable to Chrome
	// trace_event JSON via trace.Trace.WriteChrome). Off by default;
	// when off no ring buffer is even allocated; when on each rank
	// keeps its newest trace.DefaultCapacity events.
	TraceEvents bool
	// Progress, when non-nil, receives one Progress record per
	// alternating iteration: iteration count, freshest relative error
	// (when ComputeError is set), elapsed wall time, and the reporting
	// rank's per-phase time. The callback runs synchronously on the
	// driver's reporting goroutine (rank 0 for the parallel drivers),
	// so it must be fast and must not call back into the run. The full
	// series is also collected into Result.Progress.
	Progress func(Progress)
	// Metrics, when non-nil, receives run instrumentation: collective
	// latency histograms and per-rank traffic from the mpi runtime,
	// NLS inner-iteration counts, and the per-iteration relative
	// error gauge. The registry is shared across rank goroutines and
	// is safe for concurrent use; reuse one registry across runs to
	// accumulate, or snapshot per run.
	Metrics *metrics.Registry
	// Fault, when non-nil, arms deterministic fault injection in the
	// parallel drivers: the injector is consulted at every collective
	// entry on every rank and can delay, drop, or kill a rank there
	// (see internal/fault; `nmfrun -fault` builds one from a spec
	// string). A killed rank fails the run fast — every survivor
	// returns the same mpi.RankFailedError instead of deadlocking.
	Fault *fault.Injector
	// CommDeadline bounds how long any rank may block in a send or
	// receive before the run fails with a typed mpi.RankFailedError
	// (ErrDeadline) — the straggler/lost-message detector. 0 keeps
	// the runtime default (2 minutes); < 0 disables.
	CommDeadline time.Duration
	// CheckpointDir enables periodic factor checkpointing: every
	// CheckpointEvery iterations rank 0 gathers the full W and H and
	// atomically replaces <CheckpointDir>/checkpoint.bin (versioned
	// header, then both factors in the mat binary format). A run
	// resumed from the checkpoint (LoadCheckpoint + Checkpoint.Resume)
	// recomputes the remaining iterations bitwise-identically to the
	// uninterrupted run. Empty disables.
	CheckpointDir string
	// CheckpointEvery is the checkpoint period in iterations (default
	// 10 when CheckpointDir is set).
	CheckpointEvery int
	// ckptBase and ckptRelErr carry a resumed run's prior progress
	// (set by Checkpoint.Resume) so checkpoints written after a resume
	// record cumulative iteration counts and the full error history —
	// a twice-resumed chain stays consistent.
	ckptBase   int
	ckptRelErr []float64
}

// withDefaults validates and normalizes the options.
func (o Options) withDefaults(m, n int) (Options, error) {
	if o.K < 1 {
		return o, fmt.Errorf("core: rank K = %d, want ≥ 1", o.K)
	}
	if o.K > m || o.K > n {
		return o, fmt.Errorf("core: rank K = %d exceeds matrix dims %dx%d", o.K, m, n)
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 30
	}
	if o.Sweeps <= 0 {
		o.Sweeps = 1
	}
	if o.KernelThreads <= 0 {
		o.KernelThreads = 1
	}
	if o.Model == (perf.Model{}) {
		o.Model = perf.Edison()
	}
	if o.CheckpointDir != "" && o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 10
	}
	if (o.Tol > 0 || o.TolGrad > 0) && !o.ComputeError {
		return o, fmt.Errorf("core: Tol/TolGrad require ComputeError")
	}
	if o.L2W < 0 || o.L1W < 0 || o.L2H < 0 || o.L1H < 0 {
		return o, fmt.Errorf("core: regularization weights must be ≥ 0")
	}
	if o.InitW != nil && (o.InitW.Rows != m || o.InitW.Cols != o.K) {
		return o, fmt.Errorf("core: InitW is %dx%d, want %dx%d", o.InitW.Rows, o.InitW.Cols, m, o.K)
	}
	if o.InitH != nil && (o.InitH.Rows != o.K || o.InitH.Cols != n) {
		return o, fmt.Errorf("core: InitH is %dx%d, want %dx%d", o.InitH.Rows, o.InitH.Cols, o.K, n)
	}
	if (o.InitW != nil && o.InitW.Min() < 0) || (o.InitH != nil && o.InitH.Min() < 0) {
		return o, fmt.Errorf("core: explicit initial factors must be non-negative")
	}
	return o, nil
}

// localInitH returns this rank's k×cols block of the initial H
// starting at global column colOff: sliced from an explicit InitH, or
// element-addressed otherwise — identical across layouts either way.
func localInitH(opts Options, cols, colOff int) *mat.Dense {
	if opts.InitH != nil {
		return opts.InitH.SubmatrixCols(colOff, colOff+cols)
	}
	return initH(opts.K, cols, colOff, opts.Seed)
}

// localInitW returns this rank's rows×k block of the initial W
// starting at global row rowOff.
func localInitW(opts Options, rows, rowOff int) *mat.Dense {
	if opts.InitW != nil {
		return opts.InitW.SubmatrixRows(rowOff, rowOff+rows)
	}
	return initW(rows, opts.K, rowOff, opts.Seed)
}

// applyRegInto folds the regularization terms into a
// normal-equations NNLS instance: returns (G + λ₂·I, F − λ₁/2), the
// modified copies drawn from ws and the inputs untouched.
// gTmp/fTmp are the workspace buffers to Put back after the solve (nil
// when the corresponding weight is zero and the input passed through,
// which Put accepts). With both weights zero — the common case — no
// buffer is drawn at all, keeping the steady state allocation-free.
func applyRegInto(ws *mat.Workspace, g, f *mat.Dense, l2, l1 float64) (gOut, fOut, gTmp, fTmp *mat.Dense) {
	gOut, fOut = g, f
	if l2 != 0 {
		gTmp = ws.Get(g.Rows, g.Cols)
		gTmp.CopyFrom(g)
		for i := 0; i < gTmp.Rows; i++ {
			gTmp.Set(i, i, gTmp.At(i, i)+l2)
		}
		gOut = gTmp
	}
	if l1 != 0 {
		fTmp = ws.Get(f.Rows, f.Cols)
		fTmp.CopyFrom(f)
		half := l1 / 2
		for i := range fTmp.Data {
			fTmp.Data[i] -= half
		}
		fOut = fTmp
	}
	return gOut, fOut, gTmp, fTmp
}

// wSeedSalt decorrelates the W initialization stream from H's.
const wSeedSalt = 0x9e3779b97f4a7c15

// initH fills a k×localCols block of the global H (k×n) starting at
// global column colOff, identically across all layouts.
func initH(k, localCols, colOff int, seed uint64) *mat.Dense {
	h := mat.NewDense(k, localCols)
	h.InitAddressed(seed, 0, colOff)
	return h
}

// initW fills a localRows×k block of the global W (m×k) starting at
// global row rowOff. W's init only serves as a warm start: BPP's
// result does not depend on it, while MU/HALS iterate from it.
func initW(localRows, k, rowOff int, seed uint64) *mat.Dense {
	w := mat.NewDense(localRows, k)
	w.InitAddressed(seed^wSeedSalt, rowOff, 0)
	return w
}

// Result reports a finished factorization.
type Result struct {
	// W is the m×k left factor; H is the k×n right factor. For the
	// parallel algorithms these are gathered onto the caller.
	W, H *mat.Dense
	// RelErr holds ‖A−WH‖_F/‖A‖_F after each iteration when
	// ComputeError is set (empty otherwise).
	RelErr []float64
	// Iterations is the number of alternating iterations performed.
	Iterations int
	// Progress is the per-iteration telemetry series when
	// Options.Progress was set (nil otherwise).
	Progress []Progress
	// Breakdown is the per-iteration task breakdown (averaged over
	// iterations, max over ranks; excludes setup and final gathering).
	Breakdown *perf.Breakdown
	// PerRank is the per-iteration task cost of each rank (same
	// window as Breakdown, before the max-over-ranks aggregation), so
	// reports expose rank skew. One entry for sequential runs.
	PerRank []perf.RankStats
	// ledgers are the per-rank books of the measured window that
	// Breakdown and PerRank summarize, in integer nanoseconds.
	ledgers []*perf.Ledger
	// Trace is the merged per-rank event timeline when
	// Options.TraceEvents was set (nil otherwise).
	Trace *trace.Trace
	// Algorithm and Grid describe how the run was executed, for
	// reports ("Sequential", "Naive p=16", "HPC-NMF 4x4").
	Algorithm string
	// Grid is the processor grid of an HPC run (zero for sequential
	// and naive runs). GridAuto reports whether the cost-model
	// autotuner picked it, and GridPredictedSeconds is the modeled
	// per-iteration forecast the tuner ranks grids by — compare with
	// Breakdown.MeasuredTotal()/ModeledTotal() for predicted-vs-
	// measured accounting.
	Grid                 grid.Grid
	GridAuto             bool
	GridPredictedSeconds float64
	// OOC is the tile-I/O accounting of an out-of-core run (nil for
	// in-core runs): bytes and tiles streamed, loader vs consumer-wait
	// time, and the hidden (overlapped) fraction.
	OOC *OOCStats
}

// trackedNorm is ‖A‖²_F for a run that tracks the objective and 0 for
// one that does not: step reads it only under ComputeError, and the sum
// is a serial pass over every stored entry.
func trackedNorm(a Matrix, opts Options) float64 {
	if !opts.ComputeError {
		return 0
	}
	return a.SquaredFrobeniusNorm()
}

// relErrFrom computes ‖A−WH‖_F/‖A‖_F from the iteration byproducts:
// ‖A‖² − 2·⟨WᵀA, H⟩ + ⟨WᵀW, HHᵀ⟩, clamped at zero against roundoff.
func relErrFrom(normA2, cross, wtwDotHht float64) float64 {
	v := normA2 - 2*cross + wtwDotHht
	if v < 0 {
		v = 0
	}
	if normA2 <= 0 {
		return 0
	}
	return math.Sqrt(v) / math.Sqrt(normA2)
}

// shouldStop implements the Tol early-exit rule on the error history:
// stop once an iteration improves the relative error by less than tol.
// The improvement must be non-negative — an error *increase* (negative
// delta, the signature of an oscillating inexact solver) is not
// convergence, and treating it as such would freeze the factorization
// at a transiently bad iterate.
func shouldStop(relErr []float64, tol float64) bool {
	n := len(relErr)
	if tol <= 0 || n < 2 {
		return false
	}
	d := relErr[n-2] - relErr[n-1]
	return d >= 0 && d < tol
}

// projGradSq returns ‖P[∇_H f]‖²_F for the H-subproblem from the
// iteration byproducts: ∇ = 2(WᵀW·H − WᵀA); the projection keeps the
// full gradient on positive entries and only its negative part on
// zero entries (those may only move inward). The gradient buffer comes
// from ws and the multiply runs on pool (both may be nil).
func projGradSq(wtw, wta, h *mat.Dense, ws *mat.Workspace, pool *par.Pool) float64 {
	grad := ws.Get(h.Rows, h.Cols)
	mat.ParMulTo(grad, wtw, h, pool)
	s := 0.0
	for i, hv := range h.Data {
		g := 2 * (grad.Data[i] - wta.Data[i])
		if hv > 0 || g < 0 {
			s += g * g
		}
	}
	ws.Put(grad)
	return s
}

// gradConverged applies the TolGrad rule in squared norms:
// ‖P[∇]‖² ≤ TolGrad²·refSq, where refSq = ‖WᵀA‖²_F sets the scale
// (at any stationary point WᵀW·H balances WᵀA, so this reference is
// O(signal) even when the very first iterate is already optimal —
// the case a first-iteration-gradient reference gets wrong).
func gradConverged(tolGrad, pgSq, refSq float64) bool {
	if tolGrad <= 0 {
		return false
	}
	if refSq <= 0 {
		return pgSq == 0
	}
	return pgSq <= tolGrad*tolGrad*refSq
}

// gramFlops is the flop count of a k×k Gram product over c vectors.
func gramFlops(c, k int) int64 { return int64(c) * int64(k) * int64(k+1) }

// checkFactorSanity panics early (with a clear message) if a factor
// went non-finite — the failure mode of a diverging solver.
func checkFactorSanity(name string, f *mat.Dense) {
	if !f.IsFinite() {
		panic(fmt.Sprintf("core: factor %s became non-finite; the local NLS solver diverged", name))
	}
}
