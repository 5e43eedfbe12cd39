package ncp

import (
	"fmt"
	"math"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/rng"
)

// Options configures a non-negative CP decomposition.
type Options struct {
	// Rank is the CP rank (required, ≥ 1).
	Rank int
	// MaxIter bounds outer ANLS sweeps (default 50).
	MaxIter int
	// Tol stops when the relative error decreases by less than Tol
	// between sweeps (default 1e-6; ≤ 0 disables).
	Tol float64
	// Seed drives factor initialization.
	Seed uint64
	// Solver solves each mode's NNLS problem; nil means BPP. Every rank
	// calls this one instance concurrently, with a nil nnls.Context.
	Solver nnls.Solver
}

// Result reports a finished decomposition.
type Result struct {
	// A, B, C are the non-negative factor matrices (I×r, J×r, K×r).
	A, B, C *mat.Dense
	// RelErr is ‖T − [[A,B,C]]‖ / ‖T‖ after each sweep.
	RelErr []float64
	// Iterations is the number of ANLS sweeps performed.
	Iterations int
}

// Run decomposes T ≈ [[A, B, C]] with non-negative factors via ANLS:
// each sweep solves, for every mode in turn,
//
//	min_{X≥0} ‖X·(G₁ ∘ G₂) − MTTKRP‖
//
// where G₁, G₂ are the Gram matrices of the other two factors and ∘
// is the Hadamard product — the exact tensor analogue of the matrix
// updates in Algorithm 1, solved with the same BPP machinery. It is
// RunParallel on one rank, whose slab is the whole tensor, read in
// place.
func Run(t *Tensor3, opts Options) (*Result, error) { return RunParallel(t, 1, opts) }

// RunParallel decomposes T ≈ [[A, B, C]] on p simulated ranks,
// realizing the paper's future-work direction (§7) with the same
// communication discipline as HPC-NMF: the tensor is distributed in
// mode-0 slabs (rank r owns T[i∈slab_r, :, :]) and never moves; only
// factor matrices and Gram matrices are communicated.
//
// Per sweep:
//
//   - A update: needs only the replicated B, C and the local slab —
//     embarrassingly parallel, zero communication (the tensor
//     analogue of the independent NLS rows of W).
//   - B and C updates: the MTTKRP decomposes over slabs, so each rank
//     computes its local contribution and one all-reduce of a J×r
//     (resp. K×r) matrix assembles it, plus an all-reduce of A's r×r
//     Gram — exactly the Gram/product split of Algorithm 3.
//
// Factor initialization is element-addressed, so every p computes the
// same iterates up to reduction order.
func RunParallel(t *Tensor3, p int, opts Options) (*Result, error) {
	if opts.Rank < 1 {
		return nil, fmt.Errorf("ncp: rank %d, want ≥ 1", opts.Rank)
	}
	if p < 1 || t.I < p {
		return nil, fmt.Errorf("ncp: cannot split %d slabs across %d ranks", t.I, p)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 50
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-6
	}
	r := opts.Rank
	normT2 := t.SquaredNorm()
	normT := math.Sqrt(normT2)

	world := mpi.NewWorld(p)
	var res *Result
	body := func(c *mpi.Comm) {
		rank := c.Rank()
		lo, hi := grid.BlockRange(t.I, p, rank)
		slab := t.slabRows(lo, hi)

		solver := opts.Solver
		if solver == nil {
			solver = nnls.NewBPP()
		}
		// solve returns the mode's factor X ≥ 0 minimizing
		// ‖X·G − M‖, warm-started from x.
		solve := func(mode, sweep int, g, m, x *mat.Dense) *mat.Dense {
			sol, _, err := nnls.Solve(solver, g, m.T(), x.T())
			if err != nil {
				panic(fmt.Errorf("ncp: mode-%d solve failed at sweep %d: %w", mode, sweep, err))
			}
			return sol.T()
		}
		a := initAddressed(hi-lo, r, lo, opts.Seed, 0x1111)
		b := initAddressed(t.J, r, 0, opts.Seed, 0x2222)
		cf := initAddressed(t.K, r, 0, opts.Seed, 0x3333)

		var relErr []float64
		for sweep := 0; sweep < opts.MaxIter; sweep++ {
			// Mode 0: local solve per slab, no communication.
			a = solve(0, sweep, Hadamard(mat.Gram(b), mat.Gram(cf)), MTTKRP(slab, 0, b, cf), a)

			// Mode 1: all-reduce AᵀA and the slab MTTKRP contributions.
			gramA := &mat.Dense{Rows: r, Cols: r, Data: c.AllReduce(mat.Gram(a).Data)}
			m1 := &mat.Dense{Rows: t.J, Cols: r, Data: c.AllReduce(MTTKRP(slab, 1, a, cf).Data)}
			b = solve(1, sweep, Hadamard(gramA, mat.Gram(cf)), m1, b)

			// Mode 2: symmetric to mode 1, reusing AᵀA.
			m2 := &mat.Dense{Rows: t.K, Cols: r, Data: c.AllReduce(MTTKRP(slab, 2, a, b).Data)}
			cf = solve(2, sweep, Hadamard(gramA, mat.Gram(b)), m2, cf)

			// Error via byproducts, as in the matrix case:
			// ‖T−[[A,B,C]]‖² = ‖T‖² − 2·⟨MTTKRP₂, C⟩ + ⟨G_A∘G_B, CᵀC⟩.
			gAll := Hadamard(Hadamard(gramA, mat.Gram(b)), mat.Gram(cf))
			fit := normT2 - 2*mat.Dot(m2, cf) + traceSum(gAll)
			if fit < 0 {
				fit = 0
			}
			relErr = append(relErr, math.Sqrt(fit)/normT)
			if opts.Tol > 0 && len(relErr) >= 2 &&
				relErr[len(relErr)-2]-relErr[len(relErr)-1] < opts.Tol {
				break
			}
		}

		// Gather A's row slabs on rank 0 (B, C are replicated).
		counts := grid.ScaleCounts(grid.BlockCounts(t.I, p), r)
		aAll := c.GatherV(0, a.Data, counts)
		if rank == 0 {
			res = &Result{
				A:          &mat.Dense{Rows: t.I, Cols: r, Data: aAll},
				B:          b,
				C:          cf,
				RelErr:     relErr,
				Iterations: len(relErr),
			}
		}
	}
	if err := world.RunErr(body); err != nil {
		return nil, fmt.Errorf("ncp: parallel run failed: %w", err)
	}
	return res, nil
}

// slabRows returns the sub-tensor of mode-0 slices [lo, hi) as a view
// of t's data: slabs are contiguous in the layout, so no rank copies
// its share, and a one-rank run reads the caller's tensor in place.
func (t *Tensor3) slabRows(lo, hi int) *Tensor3 {
	if lo < 0 || hi < lo || hi > t.I {
		panic(fmt.Sprintf("ncp: slab [%d,%d) of %d", lo, hi, t.I))
	}
	sz := t.J * t.K
	return &Tensor3{I: hi - lo, J: t.J, K: t.K, Data: t.Data[lo*sz : hi*sz : hi*sz]}
}

// initAddressed draws a strictly positive factor addressed by global
// row, so distributed slabs agree element-wise with one rank's draw.
func initAddressed(rows, r, rowOff int, seed, salt uint64) *mat.Dense {
	f := mat.NewDense(rows, r)
	for i := 0; i < rows; i++ {
		for l := 0; l < r; l++ {
			f.Set(i, l, 0.1+rng.At(seed^salt, rowOff+i, l))
		}
	}
	return f
}

// traceSum returns Σᵢⱼ Gᵢⱼ — ⟨1, G⟩, which for G = G_A∘G_B∘G_C equals
// ‖[[A,B,C]]‖².
func traceSum(g *mat.Dense) float64 {
	s := 0.0
	for _, v := range g.Data {
		s += v
	}
	return s
}
