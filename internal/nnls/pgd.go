package nnls

import (
	"hpcnmf/internal/mat"
)

// PGD solves the NNLS problem by projected gradient descent (in the
// style of Lin 2007), the remaining family of NLS methods the paper's
// survey references (§1: "projected gradient, interior point, etc.").
// Each sweep takes a gradient step with the safe step size 1/L —
// L = ‖G‖∞ bounds the spectral radius of the symmetric PSD Gram — and
// projects back onto the non-negative orthant:
//
//	X ← [X − (G·X − F)/L]₊
//
// PGD is inexact like MU/HALS (a fixed number of sweeps per call) but
// converges on problems where MU stalls at zero entries, because the
// projection can reactivate them.
type PGD struct {
	// Sweeps is the number of projected gradient steps per Solve (≥1).
	Sweeps int
}

// NewPGD returns a projected-gradient solver.
func NewPGD(sweeps int) *PGD {
	if sweeps < 1 {
		sweeps = 1
	}
	return &PGD{Sweeps: sweeps}
}

// Name implements Solver.
func (s *PGD) Name() string { return "PGD" }

// Solve implements Solver.
func (s *PGD) Solve(g, f, xInit *mat.Dense) (*mat.Dense, Stats, error) {
	return solveAlloc(s, g, f, xInit)
}

// SolveCtx implements ContextSolver: the gradient buffer G·X comes
// from the workspace and the projected steps update dst in place.
func (s *PGD) SolveCtx(ctx *Context, g, f, xInit, dst *mat.Dense) (Stats, error) {
	if err := checkDims(g, f, xInit); err != nil {
		return Stats{}, err
	}
	if err := checkDst(f, dst); err != nil {
		return Stats{}, err
	}
	k, r := f.Rows, f.Cols
	x := dst
	startInto(x, xInit)
	x.ClampNonneg() // PGD requires a feasible start
	var st Stats

	// L = max row sum of |G| ≥ λmax(G) for symmetric G.
	l := 0.0
	for i := 0; i < k; i++ {
		row := g.Row(i)
		s := 0.0
		for _, v := range row {
			if v < 0 {
				s -= v
			} else {
				s += v
			}
		}
		if s > l {
			l = s
		}
	}
	if l == 0 {
		// G is the zero matrix: any feasible X is optimal for the
		// quadratic part; the best non-negative X maximizes ⟨F, X⟩
		// but the problem is unbounded unless F ≤ 0, so return the
		// projection of F (standard convention) clamped at zero.
		x.CopyFrom(f)
		x.ClampNonneg()
		return st, nil
	}
	inv := 1 / l
	ws, pool := ctx.resources()
	gx := ws.Get(k, r)
	for sweep := 0; sweep < s.Sweeps; sweep++ {
		mat.ParMulTo(gx, g, x, pool)
		for i := range x.Data {
			v := x.Data[i] - inv*(gx.Data[i]-f.Data[i])
			if v < 0 {
				v = 0
			}
			x.Data[i] = v
		}
		st.Flops += pgdCost.sweepFlops(k, r)
		st.Iterations++
	}
	ws.Put(gx)
	return st, nil
}
