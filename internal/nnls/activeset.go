package nnls

import (
	"hpcnmf/internal/mat"
)

// ActiveSet is the classical Lawson–Hanson active-set NNLS method,
// adapted to the normal-equations form. It adds one variable to the
// passive set per outer iteration (the most violated dual) and
// backtracks along the line segment to the unconstrained solution
// whenever feasibility would be lost. It is slower than BPP — one
// variable moves per iteration instead of a whole block — but its
// correctness is easy to audit, so it serves as the reference solver
// BPP is validated against (the NNLS solution is unique for positive
// definite G, so both must agree).
type ActiveSet struct {
	// MaxIter bounds outer iterations per column; 0 means 10k+100
	// (each outer iteration adds one passive variable, but
	// backtracking can remove several, so the bound must be a
	// comfortable multiple of k).
	MaxIter int
}

// NewActiveSet returns a Lawson–Hanson solver.
func NewActiveSet() *ActiveSet { return &ActiveSet{} }

// Name implements Solver.
func (s *ActiveSet) Name() string { return "ActiveSet" }

// SolveCtx implements Solver, one column at a time, serially, with its
// own temporaries (ctx is unused). The warm start is ignored:
// Lawson–Hanson requires starting from a feasible (x = 0) point to
// guarantee monotone descent.
func (s *ActiveSet) SolveCtx(_ *Context, g, f, xInit, dst *mat.Dense) (Stats, error) {
	if err := checkDims(g, f, xInit); err != nil {
		return Stats{}, err
	}
	if err := checkDst(f, dst); err != nil {
		return Stats{}, err
	}
	k, r := f.Rows, f.Cols
	var st Stats
	var firstErr error
	for c := 0; c < r; c++ {
		fcol := make([]float64, k)
		for i := 0; i < k; i++ {
			fcol[i] = f.At(i, c)
		}
		xcol, colStats, err := s.solveColumn(g, fcol)
		st.Add(colStats)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for i := 0; i < k; i++ {
			dst.Set(i, c, xcol[i])
		}
	}
	return st, firstErr
}

// solveColumn runs Lawson–Hanson for min_{x≥0} ½xᵀGx − fᵀx.
func (s *ActiveSet) solveColumn(g *mat.Dense, f []float64) ([]float64, Stats, error) {
	k := len(f)
	maxIter := s.MaxIter
	if maxIter == 0 {
		maxIter = 10*k + 100
	}
	var st Stats
	x := make([]float64, k)
	passive := make([]bool, k)
	tol := lhTolerance(g, f)

	for iter := 0; iter < maxIter; iter++ {
		st.Iterations++
		// Dual w = f − G·x; pick the most violated active variable.
		best, bestVal := -1, tol
		for i := 0; i < k; i++ {
			if passive[i] {
				continue
			}
			w := f[i]
			grow := g.Row(i)
			for l := 0; l < k; l++ {
				if x[l] != 0 {
					w -= grow[l] * x[l]
					st.Flops += 2
				}
			}
			if w > bestVal {
				best, bestVal = i, w
			}
		}
		if best < 0 {
			return x, st, nil // KKT satisfied
		}
		passive[best] = true

		// Inner loop: solve on the passive set; backtrack while the
		// trial solution leaves the feasible orthant.
		firstPass := true
		for {
			z, flops, err := solvePassive(g, f, passive)
			st.Flops += flops
			if err != nil {
				return x, st, err
			}
			// Anti-cycling guard: if the variable we just added is
			// sent straight back to the boundary by its own solve,
			// the dual violation was numerical noise (ill-conditioned
			// G_PP); accept the current iterate as converged instead
			// of re-adding it forever.
			if firstPass && z[best] <= tol {
				passive[best] = false
				return x, st, nil
			}
			firstPass = false
			minIdx, minAlpha := -1, 1.0
			for i := 0; i < k; i++ {
				if passive[i] && z[i] <= tol {
					// Step length to the boundary along x → z.
					den := x[i] - z[i]
					if den <= 0 {
						continue
					}
					if a := x[i] / den; a < minAlpha {
						minAlpha, minIdx = a, i
					}
				}
			}
			if minIdx < 0 {
				allOK := true
				for i := 0; i < k; i++ {
					if passive[i] && z[i] <= tol {
						// Degenerate: z hit the boundary exactly with
						// x already there; drop it from the passive set.
						passive[i] = false
						z[i] = 0
						allOK = false
					}
				}
				copy(x, z)
				if allOK {
					break
				}
				continue
			}
			for i := 0; i < k; i++ {
				if passive[i] {
					x[i] += minAlpha * (z[i] - x[i])
				}
			}
			x[minIdx] = 0
			passive[minIdx] = false
		}
	}
	for i := range x {
		if x[i] < 0 {
			x[i] = 0
		}
	}
	return x, st, ErrNotConverged
}

// solvePassive solves G_PP·z_P = f_P, zeros elsewhere.
func solvePassive(g *mat.Dense, f []float64, passive []bool) ([]float64, int64, error) {
	k := len(f)
	var pidx []int
	for i := 0; i < k; i++ {
		if passive[i] {
			pidx = append(pidx, i)
		}
	}
	z := make([]float64, k)
	if len(pidx) == 0 {
		return z, 0, nil
	}
	pp := len(pidx)
	gpp := mat.NewDense(pp, pp)
	rhs := mat.NewDense(pp, 1)
	for a, ia := range pidx {
		for b, ib := range pidx {
			gpp.Set(a, b, g.At(ia, ib))
		}
		rhs.Set(a, 0, f[ia])
	}
	if err := mat.SolveSPDInto(rhs, gpp, rhs, nil); err != nil {
		return nil, 0, err
	}
	for a, ia := range pidx {
		z[ia] = rhs.At(a, 0)
	}
	return z, int64(pp*pp*pp)/3 + int64(2*pp*pp), nil
}

func lhTolerance(g *mat.Dense, f []float64) float64 {
	return 1e-10 * (1 + max(maxAbs(g.Data), maxAbs(f)))
}
