package core

import (
	"fmt"
	"math"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/nnls"
)

// SymOptions configures symmetric NMF.
type SymOptions struct {
	// K is the factorization rank (number of clusters).
	K int
	// MaxIter bounds outer iterations (default 100).
	MaxIter int
	// Tol stops when the symmetric residual proxy ‖W−H‖/‖H‖ falls
	// below it (default 1e-4; ≤ 0 disables).
	Tol float64
	// Alpha weights the symmetry penalty; 0 picks the standard
	// heuristic max(A)².
	Alpha float64
	// Seed drives the deterministic initialization.
	Seed uint64
}

// SymResult reports a symmetric factorization A ≈ H·Hᵀ.
type SymResult struct {
	// H is the n×k non-negative symmetric factor.
	H *mat.Dense
	// RelErr is ‖A − H·Hᵀ‖_F/‖A‖_F after each iteration.
	RelErr []float64
	// Iterations is the number of alternating iterations performed.
	Iterations int
}

// withDefaults validates the options against the matrix and fills in
// MaxIter, Tol and Alpha.
func (o SymOptions) withDefaults(a Matrix) (SymOptions, error) {
	m, n := a.Dims()
	if m != n {
		return o, fmt.Errorf("core: SymNMF needs a square matrix, got %dx%d", m, n)
	}
	if o.K < 1 || o.K > n {
		return o, fmt.Errorf("core: SymNMF rank %d out of range for n=%d", o.K, n)
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	if o.Alpha <= 0 {
		// Kuang et al.'s heuristic: the squared max entry of A.
		o.Alpha = maxEntry(a)
		o.Alpha *= o.Alpha
		if o.Alpha == 0 {
			o.Alpha = 1
		}
	}
	return o, nil
}

// RunSymNMF computes symmetric NMF, A ≈ H·Hᵀ with H ≥ 0 (n×k), for a
// symmetric non-negative matrix A — the graph-clustering
// factorization of Kuang, Ding & Park (SDM 2012), which the paper
// cites as an NMF application [13]. It uses their penalized ANLS
// formulation: minimize
//
//	‖A − W·Hᵀ‖²_F + α·‖W − H‖²_F ,  W, H ≥ 0,
//
// alternating NNLS solves for W and H; the penalty pulls the two
// factors together so that at convergence W ≈ H and A ≈ H·Hᵀ.
// Each subproblem is the standard normal-equations NNLS with the
// Gram augmented by α·I and the right-hand side by α times the other
// factor, so the same BPP solver applies.
func RunSymNMF(a Matrix, opts SymOptions) (*SymResult, error) {
	return RunSymNMFParallel(a, 1, opts)
}

// RunSymNMFParallel runs symmetric NMF on p simulated ranks with the
// double-partitioned layout of Algorithm 2 (each rank owns a row
// block of A and the matching row blocks of W and H; full factors are
// assembled with all-gathers each half-iteration). RunSymNMF is the
// p = 1 case; with a shared seed every p computes the same iterates up
// to reduction order.
func RunSymNMFParallel(a Matrix, p int, opts SymOptions) (*SymResult, error) {
	opts, err := opts.withDefaults(a)
	if err != nil {
		return nil, err
	}
	_, n := a.Dims()
	if p < 1 || n < p {
		return nil, fmt.Errorf("core: cannot split %d rows across %d ranks", n, p)
	}
	k, alpha := opts.K, opts.Alpha
	normA2 := a.SquaredFrobeniusNorm()
	normA := math.Sqrt(normA2)
	rowCounts := grid.ScaleCounts(grid.BlockCounts(n, p), k)

	world := mpi.NewWorld(p)
	var res *SymResult
	body := func(c *mpi.Comm) {
		rank := c.Rank()
		r0, r1 := grid.BlockRange(n, p, rank)
		ai := a.Block(r0, r1, 0, n)
		ao := mat.NewDense(r1-r0, k) // A_i·O for the full factor O at hand
		ws := mat.NewWorkspace()
		solver := nnls.NewBPP()
		hi := initW(r1-r0, k, r0, opts.Seed)
		wi := initW(r1-r0, k, r0, opts.Seed+1)
		// half updates this rank's block x of one factor given the
		// block o of the other: with O the full other factor
		// (assembled by one all-gather), it solves
		// (OᵀO + αI)·Xᵀ = (A_i·O)ᵀ + α·oᵀ warm-started from x.
		half := func(which string, o, x *mat.Dense) *mat.Dense {
			full := &mat.Dense{Rows: n, Cols: k, Data: c.AllGatherV(o.Data, rowCounts)}
			g := mat.Gram(full)
			for i := 0; i < k; i++ {
				g.Set(i, i, g.At(i, i)+alpha)
			}
			mulBtInto(ao, ai, full, ws, nil)
			rhs := ao.T()
			oT := o.T()
			for i := range rhs.Data {
				rhs.Data[i] += alpha * oT.Data[i]
			}
			sol, _, err := nnls.Solve(solver, g, rhs, x.T())
			if err != nil {
				panic(fmt.Errorf("core: parallel SymNMF %s update failed: %w", which, err))
			}
			return sol.T()
		}

		var relErr []float64
		iters := 0
		for it := 0; it < opts.MaxIter; it++ {
			iters++
			wi = half("W", hi, wi)
			hi = half("H", wi, hi)

			// Fit and the W≈H fusion test need one all-gather of the
			// fresh H plus scalar all-reduces of the local partials.
			hFull := &mat.Dense{Rows: n, Cols: k, Data: c.AllGatherV(hi.Data, rowCounts)}
			mulBtInto(ao, ai, hFull, ws, nil) // row block of A·H
			diff := wi.Clone()
			diff.Sub(hi)
			parts := c.AllReduce([]float64{
				mat.Dot(ao, hi),
				diff.SquaredFrobeniusNorm(),
				hi.SquaredFrobeniusNorm(),
			})
			hth := mat.Gram(hFull)
			fit := normA2 - 2*parts[0] + hth.SquaredFrobeniusNorm()
			if fit < 0 {
				fit = 0
			}
			relErr = append(relErr, math.Sqrt(fit)/normA)
			if opts.Tol > 0 && math.Sqrt(parts[1]) <= opts.Tol*math.Sqrt(parts[2]) {
				break
			}
		}
		hAll := c.GatherV(0, hi.Data, rowCounts)
		if rank == 0 {
			res = &SymResult{
				H:          &mat.Dense{Rows: n, Cols: k, Data: hAll},
				RelErr:     relErr,
				Iterations: iters,
			}
		}
	}
	if err := runWorld(world, body); err != nil {
		return nil, err
	}
	return res, nil
}

// maxEntry returns the largest stored entry of A, or 0 when none is
// positive.
func maxEntry(a Matrix) float64 {
	m := 0.0
	for _, v := range storedValues(a) {
		if v > m {
			m = v
		}
	}
	return m
}
