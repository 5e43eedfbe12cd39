// Package nnls solves the non-negative least squares subproblems at
// the heart of the ANLS framework (paper §4): given the Gram matrix
// G = CᵀC (k×k, symmetric positive semi-definite) and the projected
// right-hand sides F = CᵀB (k×r), find X ≥ 0 (k×r) minimizing
// ‖C·X − B‖_F, i.e. r independent problems min_{x≥0} ½xᵀGx − fᵀx.
//
// Four solvers are provided, mirroring the paper's "flexible local
// solver" claim (§1): Block Principal Pivoting (BPP, §4.2 — the
// paper's choice), the classical Lawson–Hanson active-set method (an
// exact reference), and the inexact update rules Multiplicative
// Update (MU) and Hierarchical Alternating Least Squares (HALS)
// (§4.1, Eqs. 3–4), which perform a fixed number of sweeps per call.
package nnls

import (
	"fmt"

	"hpcnmf/internal/mat"
)

// Stats reports work done by a Solve call, used for the NLS share of
// the per-iteration flop accounting (the paper's C_BPP(k, c) term).
type Stats struct {
	// Flops approximates floating point operations performed.
	Flops int64
	// Iterations is the solver's outer iteration count, one meaning
	// per solver: MU, HALS, PGD — the sweeps performed (PGD stops early
	// when converged); BPP — the pivoting rounds its slowest column
	// needed (the largest round count over the column chunks, not a
	// sum); ActiveSet — Lawson–Hanson outer steps summed over columns.
	Iterations int
	// Groups counts BPP's grouped solves (one Cholesky of G[P,P] each)
	// and ColumnRounds the columns they held, summed over rounds and
	// chunks: ColumnRounds/Groups is the columns sharing a
	// factorization, ColumnRounds/columns the rounds a column takes.
	// Other solvers leave both 0.
	Groups, ColumnRounds int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Flops += other.Flops
	s.Iterations += other.Iterations
	s.Groups += other.Groups
	s.ColumnRounds += other.ColumnRounds
}

// Solver solves the batched NNLS problem from its normal-equations
// form. xInit is a warm start (k×r): exact solvers may use it to seed
// their active/passive sets; inexact solvers iterate from it. It may
// be nil, in which case solvers start cold.
type Solver interface {
	// Name identifies the solver in reports ("BPP", "HALS", ...).
	Name() string
	// Solve returns X ≥ 0 (k×r) given G (k×k) and F (k×r).
	Solve(g, f, xInit *mat.Dense) (*mat.Dense, Stats, error)
}

// checkDims validates the common shape contract.
func checkDims(g, f, xInit *mat.Dense) error {
	if g.Rows != g.Cols {
		return fmt.Errorf("nnls: Gram matrix is %dx%d, want square", g.Rows, g.Cols)
	}
	if f.Rows != g.Rows {
		return fmt.Errorf("nnls: RHS has %d rows, Gram is %dx%d", f.Rows, g.Rows, g.Cols)
	}
	if xInit != nil && (xInit.Rows != f.Rows || xInit.Cols != f.Cols) {
		return fmt.Errorf("nnls: warm start is %dx%d, want %dx%d", xInit.Rows, xInit.Cols, f.Rows, f.Cols)
	}
	return nil
}

// MU is the multiplicative-update rule of Seung & Lee (paper Eq. 3),
// expressed on the normal equations: X ← X ∘ F / (G·X), elementwise,
// with a small floor in the denominator for numerical safety. MU
// never leaves the non-negative orthant and never produces exact
// zeros from positive entries.
type MU struct {
	// Sweeps is the number of full update sweeps per Solve (≥1).
	Sweeps int
	// Eps floors denominators; defaults to 1e-16.
	Eps float64
}

// NewMU returns an MU solver performing the given sweeps per call.
func NewMU(sweeps int) *MU {
	if sweeps < 1 {
		sweeps = 1
	}
	return &MU{Sweeps: sweeps, Eps: 1e-16}
}

// Name implements Solver.
func (s *MU) Name() string { return "MU" }

// Solve implements Solver.
func (s *MU) Solve(g, f, xInit *mat.Dense) (*mat.Dense, Stats, error) {
	if err := checkDims(g, f, xInit); err != nil {
		return nil, Stats{}, err
	}
	x := mat.NewDense(f.Rows, f.Cols)
	st, err := s.SolveCtx(nil, g, f, xInit, x)
	if err != nil {
		return nil, st, err
	}
	return x, st, nil
}

// SolveCtx implements ContextSolver: the steady state draws its one
// temporary (G·X) from the workspace and allocates nothing.
func (s *MU) SolveCtx(ctx *Context, g, f, xInit, dst *mat.Dense) (Stats, error) {
	if err := checkDims(g, f, xInit); err != nil {
		return Stats{}, err
	}
	if err := checkDst(f, dst); err != nil {
		return Stats{}, err
	}
	k, r := f.Rows, f.Cols
	startInto(dst, xInit)
	ws, pool := ctx.resources()
	gx := ws.Get(k, r)
	var st Stats
	for sweep := 0; sweep < s.Sweeps; sweep++ {
		mat.ParMulTo(gx, g, dst, pool)
		for i := range dst.Data {
			den := gx.Data[i]
			if den < s.Eps {
				den = s.Eps
			}
			dst.Data[i] *= f.Data[i] / den
			if dst.Data[i] < 0 {
				dst.Data[i] = 0 // guards against negative F entries
			}
		}
		st.Flops += int64(2*k*k*r + 2*k*r)
		st.Iterations++
	}
	ws.Put(gx)
	return st, nil
}

// HALS is hierarchical alternating least squares (Cichocki et al.,
// paper Eq. 4): block coordinate descent over the rows of X, using
// the freshest values within a sweep.
type HALS struct {
	// Sweeps is the number of full row sweeps per Solve (≥1).
	Sweeps int
}

// NewHALS returns a HALS solver performing the given sweeps per call.
func NewHALS(sweeps int) *HALS {
	if sweeps < 1 {
		sweeps = 1
	}
	return &HALS{Sweeps: sweeps}
}

// Name implements Solver.
func (s *HALS) Name() string { return "HALS" }

// Solve implements Solver.
func (s *HALS) Solve(g, f, xInit *mat.Dense) (*mat.Dense, Stats, error) {
	if err := checkDims(g, f, xInit); err != nil {
		return nil, Stats{}, err
	}
	x := mat.NewDense(f.Rows, f.Cols)
	st, err := s.SolveCtx(nil, g, f, xInit, x)
	if err != nil {
		return nil, st, err
	}
	return x, st, nil
}

// SolveCtx implements ContextSolver. HALS's only temporary is the
// numerator row, drawn from the workspace; the row sweeps update dst
// in place.
func (s *HALS) SolveCtx(ctx *Context, g, f, xInit, dst *mat.Dense) (Stats, error) {
	if err := checkDims(g, f, xInit); err != nil {
		return Stats{}, err
	}
	if err := checkDst(f, dst); err != nil {
		return Stats{}, err
	}
	k, r := f.Rows, f.Cols
	x := dst
	startInto(x, xInit)
	ws, _ := ctx.resources()
	numBuf := ws.Get(1, r)
	num := numBuf.Data
	var st Stats
	for sweep := 0; sweep < s.Sweeps; sweep++ {
		for t := 0; t < k; t++ {
			gtt := g.At(t, t)
			xt := x.Row(t)
			if gtt <= 0 {
				// A collapsed component: its column of C is zero, so
				// any value is optimal; zero keeps X bounded.
				for j := range xt {
					xt[j] = 0
				}
				continue
			}
			// xt ← [(ft − Σ_{l≠t} g_tl·x_l)/gtt]_+ , using the
			// freshest x_l values (block coordinate descent).
			copy(num, f.Row(t))
			grow := g.Row(t)
			for l := 0; l < k; l++ {
				gtl := grow[l]
				if gtl == 0 || l == t {
					continue
				}
				xl := x.Row(l)
				for j := range num {
					num[j] -= gtl * xl[j]
				}
			}
			inv := 1 / gtt
			for j := range xt {
				v := num[j] * inv
				if v < 0 {
					v = 0
				}
				xt[j] = v
			}
		}
		st.Flops += int64(2*k*k*r + 3*k*r)
		st.Iterations++
	}
	ws.Put(numBuf)
	return st, nil
}
