// Package nnls solves the non-negative least squares subproblems at
// the heart of the ANLS framework (paper §4): given the Gram matrix
// G = CᵀC (k×k, symmetric positive semi-definite) and the projected
// right-hand sides F = CᵀB (k×r), find X ≥ 0 (k×r) minimizing
// ‖C·X − B‖_F, i.e. r independent problems min_{x≥0} ½xᵀGx − fᵀx.
//
// Five solvers are provided, mirroring the paper's "flexible local
// solver" claim (§1): Block Principal Pivoting (BPP, §4.2 — the
// paper's choice), the classical Lawson–Hanson active-set method (an
// exact reference), and the inexact rules Hierarchical Alternating
// Least Squares (HALS), Multiplicative Update (MU) (§4.1, Eqs. 3–4)
// and projected gradient descent (PGD), which perform a fixed number
// of sweeps per call. Methods is the one list of them: every caller
// that names, builds or prices a built-in solver reads its rows.
package nnls

import (
	"fmt"
	"strings"

	"hpcnmf/internal/mat"
)

// Method is one built-in solver: its name, its constructor (sweeps
// applies to the inexact methods) and its price, nil for a method the
// cost model does not price.
type Method struct {
	Name string
	New  func(sweeps int) Solver
	*Cost
}

// Methods is the ordered table of built-in solvers. A core.SolverKind
// is an index into it, so row 0 is the default.
var Methods = []Method{
	{"BPP", func(int) Solver { return NewBPP() }, bppCost},
	{"ActiveSet", func(int) Solver { return NewActiveSet() }, nil},
	{"HALS", func(sweeps int) Solver { return NewHALS(sweeps) }, halsCost},
	{"MU", func(sweeps int) Solver { return NewMU(sweeps) }, muCost},
	{"PGD", func(sweeps int) Solver { return NewPGD(sweeps) }, pgdCost},
}

// Cost prices a method's local solve inside the shared communication
// skeleton, whose own cost does not depend on the method: one
// right-hand-side column costs K3·k³ + K2·k² + K1·k flops per sweep
// (or pivoting round). The sweep methods charge exactly that in
// Stats.Flops, from the same value, so the price is the charge.
type Cost struct {
	// K3 is nonzero only for the exact method, which amortizes a k³/3
	// Cholesky over the columns sharing a passive set.
	K3, K2, K1 float64
	// Sweeps is the sweep (or pivoting round) count a call is priced at.
	Sweeps float64
	// IterFactor is the relative number of alternating iterations the
	// method needs to reach a fixed tolerance, normalized to BPP = 1 —
	// the empirical ordering of Kim & Park (BPP ≈ exact ANLS fastest,
	// HALS close, PGD and MU trailing) that makes a cheap-per-iteration
	// method lose an end-to-end comparison.
	IterFactor float64
}

// The sweep methods' prices: one k×k Gram-vector product per column
// per sweep (HALS's as k rank-one row updates) plus the elementwise
// update — MU's ratio, HALS's scale, PGD's step. BPP's is the grouped
// Cholesky solves: k³/3 per group, amortized here over 8 columns
// sharing a passive set, plus the per-column triangular solves and
// dual evaluation over 3 pivot rounds. Those two constants were not
// fitted to a run: they are the shape of a dense input at small rank,
// and only there are they close (DSYN 1440×960 at k = 8 measures 17
// columns per group and 1.1 rounds per column; at k = 20, 1.8 and 1.8;
// at k = 50, 1.1 and 2.6). The solver reports both (Stats.Groups and
// ColumnRounds, nmf.nls.groups and nmf.nls.column_rounds on /metrics):
// on the power-law sparse shape (Webbase 12 000, k = 20) they are 1.4
// columns per group and 2.5 rounds per column at a mean passive set of
// 7 of 20, so there BPP runs ~6× the factorizations priced here, each
// ~25× smaller.
var (
	bppCost  = &Cost{K3: 1.0 / 24, K2: 3, K1: 2, Sweeps: 3, IterFactor: 1.0}
	halsCost = &Cost{K2: 2, K1: 3, Sweeps: 1, IterFactor: 1.3}
	muCost   = &Cost{K2: 2, K1: 2, Sweeps: 1, IterFactor: 3.0}
	pgdCost  = &Cost{K2: 2, K1: 4, Sweeps: 1, IterFactor: 2.0}
)

// columnFlops is the price of one column for one sweep at rank k.
func (c *Cost) columnFlops(k int) float64 {
	kf := float64(k)
	return c.K3*kf*kf*kf + c.K2*kf*kf + c.K1*kf
}

// sweepFlops is what one sweep over r columns charges: exact, since
// the sweep methods' coefficients are small integers.
func (c *Cost) sweepFlops(k, r int) int64 { return int64(c.columnFlops(k)) * int64(r) }

// Flops is the modeled flops of one call on cols columns at rank k.
func (c *Cost) Flops(k, cols int) float64 {
	return c.Sweeps * c.columnFlops(k) * float64(cols)
}

// Find returns the row of the method named name, in any letter case.
func Find(name string) (int, error) {
	for i, m := range Methods {
		if strings.EqualFold(name, m.Name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown solver %q (want one of %s)", name, Names())
}

// Names lists the methods as flags spell them: "bpp, activeset, ...".
func Names() string {
	names := make([]string, len(Methods))
	for i, m := range Methods {
		names[i] = strings.ToLower(m.Name)
	}
	return strings.Join(names, ", ")
}

// Stats reports work done by a Solve call, used for the NLS share of
// the per-iteration flop accounting (the paper's C_BPP(k, c) term).
type Stats struct {
	// Flops approximates floating point operations performed.
	Flops int64
	// Iterations is the solver's outer iteration count, one meaning
	// per solver: MU, HALS, PGD — the sweeps performed (PGD none when
	// G is zero); BPP — the pivoting rounds its slowest column
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

// solveAlloc is the allocating Solve of a sweep method: SolveCtx, which
// checks the shapes, into a fresh destination, with no context.
func solveAlloc(s ContextSolver, g, f, xInit *mat.Dense) (*mat.Dense, Stats, error) {
	x := mat.NewDense(f.Rows, f.Cols)
	st, err := s.SolveCtx(nil, g, f, xInit, x)
	if err != nil {
		return nil, st, err
	}
	return x, st, nil
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
	return solveAlloc(s, g, f, xInit)
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
		st.Flops += muCost.sweepFlops(k, r)
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
	return solveAlloc(s, g, f, xInit)
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
		st.Flops += halsCost.sweepFlops(k, r)
		st.Iterations++
	}
	ws.Put(numBuf)
	return st, nil
}
