package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/par"
	"hpcnmf/internal/trace"
)

// Projector projects new data columns onto a fixed basis: given W
// (m×k), each batch of columns C (m×c) is mapped to
//
//	H = argmin_{H ≥ 0} ‖W·H − C‖_F
//
// — exactly the H-subproblem of the ANLS framework (paper Algorithm 1,
// line 4) with W frozen. This is the cheap "absorb new data" operation
// of the streaming scenario (§6.1.1) and the hot path of the serving
// layer: the k×k Gram WᵀW is computed once and cached, so a projection
// costs one WᵀC product plus a k×k NNLS solve per column, independent
// of however much data originally fitted the basis. A batch's product
// is 2·m·k·c flops. The usual lone column is priced by its nonzeros,
// like SpMM: one kernel call (mat.AtxNZ) scans its m entries, several
// per zero test, and adds 2·nnz(c)·k flops into an f held in registers,
// reading only the rows of W under its nonzeros.
//
// A Projector owns a workspace arena and is therefore single-goroutine,
// like the driver states; concurrent callers each need their own (the
// serving layer gives every model batcher one). ProjectInto is its one
// projection call; in steady state it allocates nothing with any
// built-in solver (BPP, HALS, MU or PGD).
type Projector struct {
	w    *mat.Dense // m×k basis; not owned — callers that mutate it call RefreshGram
	gram *mat.Dense // k×k cached WᵀW
	// finite records that gram holds no NaN or ±Inf, so W is finite;
	// ProjectInto refuses to project onto a basis that is not.
	finite bool
	s      nnls.Solver
	ctx    *nnls.Context
	tc     *trace.Tracer // nil = kernel tracing off
}

// SetTracer attaches an event tracer: each ProjectInto records its
// compute kernels (WᵀC multiply, NNLS solve) as trace.CatKernel spans,
// nested under whatever span the caller has open on the same tracer —
// the innermost level of a request's causal chain. The projector is
// single-goroutine, so the tracer must be owned by the same goroutine.
// nil detaches.
func (p *Projector) SetTracer(tc *trace.Tracer) { p.tc = tc }

// NewProjector caches the Gram of basis w (m×k) and prepares reusable
// solver resources. solver defaults to BPP when nil; pool may be nil
// (serial kernels). The basis is referenced, not copied — callers that
// mutate it must call RefreshGram afterwards.
func NewProjector(w *mat.Dense, solver nnls.Solver, pool *par.Pool) (*Projector, error) {
	if w.Rows < 1 || w.Cols < 1 {
		return nil, fmt.Errorf("core: projector basis is %dx%d, want at least 1x1", w.Rows, w.Cols)
	}
	if !w.IsFinite() {
		return nil, errBasisNotFinite
	}
	if solver == nil {
		solver = nnls.NewBPP()
	}
	p := &Projector{
		w:    w,
		gram: mat.NewDense(w.Cols, w.Cols),
		s:    solver,
		ctx:  &nnls.Context{WS: mat.NewWorkspace(), Pool: pool},
	}
	p.RefreshGram()
	return p, nil
}

// Dims returns the basis shape (m rows, k components).
func (p *Projector) Dims() (m, k int) { return p.w.Rows, p.w.Cols }

// Gram returns the cached WᵀW (shared, not a copy). Callers must treat
// it as read-only.
func (p *Projector) Gram() *mat.Dense { return p.gram }

// errBasisNotFinite refuses a basis, or the Gram of one, holding a NaN
// or ±Inf.
var errBasisNotFinite = errors.New("core: projector basis has non-finite entries")

// RefreshGram recomputes the cached Gram after the basis was mutated
// in place (the streaming refinement sweeps do this once per sweep),
// and records whether it is finite: a projection onto a basis mutated
// to hold a NaN or ±Inf fails.
func (p *Projector) RefreshGram() {
	mat.ParGramTo(p.gram, p.w, p.ctx.Pool)
	p.finite = p.gram.IsFinite()
}

// ProjectInto solves H = argmin_{H≥0} ‖W·H − C‖_F into dst (k×c) for
// cols (m×c). When resid is non-nil it must have length c and receives
// each column's relative residual ‖cⱼ − W·hⱼ‖/‖cⱼ‖ (0 for a zero
// column) — the foreground signal of the background-subtraction use
// case, computed from solve byproducts at negligible cost.
//
// A numerically rank-deficient basis (near-duplicate columns of W make
// WᵀW singular) degrades gracefully: if the plain solve fails or
// returns a non-finite iterate, the solve is retried with Tikhonov
// damping (G + λI, escalating λ), which restores strict convexity at
// the cost of a slight shrinkage of H. Only a basis that defeats the
// damped ladder too yields an error — never a panic. A basis whose
// Gram is not finite (see RefreshGram) is refused before any solve.
//
// A lone column's f = Wᵀc and ‖c‖² come from mat.AtxNZ: the fused
// operations of the full product, in its order, with only the ±0·w
// terms left out. With W finite such a term is a ±0, and adding it
// changes a sum only by turning a −0 into +0. So its f differs from the
// full product only where it holds a −0, and an f that does is
// recomputed. A zero square adds nothing to ‖c‖².
func (p *Projector) ProjectInto(dst, cols *mat.Dense, resid []float64) (nnls.Stats, error) {
	m, k := p.w.Rows, p.w.Cols
	if cols.Rows != m {
		return nnls.Stats{}, fmt.Errorf("core: projecting %d-row columns onto a %d-row basis", cols.Rows, m)
	}
	c := cols.Cols
	if dst.Rows != k || dst.Cols != c {
		return nnls.Stats{}, fmt.Errorf("core: projection destination is %dx%d, want %dx%d", dst.Rows, dst.Cols, k, c)
	}
	if resid != nil && len(resid) != c {
		return nnls.Stats{}, fmt.Errorf("core: residual buffer has length %d, want %d", len(resid), c)
	}
	if !p.finite {
		return nnls.Stats{}, errBasisNotFinite
	}
	if c == 0 {
		return nnls.Stats{}, nil
	}
	ws := p.ctx.WS
	f := ws.Get(k, c)
	sp := p.tc.BeginArg(trace.CatKernel, "MulAtB", "cols", int64(c))
	c2 := -1.0 // a lone column's ‖c‖², summed by AtxNZ
	if c == 1 {
		c2 = mat.AtxNZ(f.Data, p.w.Data, cols.Data)
	}
	if c > 1 || slices.ContainsFunc(f.Data, negZero) {
		mat.ParMulAtBTo(f, p.w, cols, p.ctx.Pool) // f = WᵀC
	}
	sp.End()
	sp = p.tc.BeginArg(trace.CatKernel, "NNLS", "cols", int64(c))
	st, err := solveDamped(p.s, p.ctx, p.gram, f, nil, dst)
	sp.End()
	if err == nil && resid != nil {
		p.residuals(resid, cols, f, dst, c2)
	}
	ws.Put(f)
	return st, err
}

// negZero reports whether x is −0.
func negZero(x float64) bool { return x == 0 && math.Signbit(x) }

// residuals fills out[j] = ‖cⱼ − W·hⱼ‖/‖cⱼ‖ from the byproducts:
// ‖c − W·h‖² = ‖c‖² − 2·hᵀf + hᵀG·h with f = Wᵀc and G = WᵀW. A
// lone column's ‖c‖² arrives as c2 from AtxNZ; c2 < 0 means each
// column's is summed here.
func (p *Projector) residuals(out []float64, cols, f, h *mat.Dense, c2 float64) {
	k, c := h.Rows, h.Cols
	gh := p.ctx.WS.Get(k, c)
	mat.ParMulTo(gh, p.gram, h, p.ctx.Pool)
	for j := 0; j < c; j++ {
		cross, quad := 0.0, 0.0
		for i := 0; i < k; i++ {
			cross += h.At(i, j) * f.At(i, j)
			quad += h.At(i, j) * gh.At(i, j)
		}
		n2 := c2
		if n2 < 0 {
			n2 = 0
			for i := 0; i < cols.Rows; i++ {
				v := cols.At(i, j)
				n2 += v * v
			}
		}
		out[j] = relErrFrom(n2, cross, quad)
	}
	p.ctx.WS.Put(gh)
}

// tikhonovBase scales the first damping rung to the Gram's magnitude:
// λ₀ = tikhonovBase · (tr(G)/k + 1). Each retry multiplies λ by
// tikhonovStep, so four rungs span twelve orders of magnitude — enough
// to regularize any Gram a finite basis can produce.
const (
	tikhonovBase  = 1e-10
	tikhonovStep  = 1e4
	tikhonovTries = 4
)

// solveDamped is the rank-deficiency-hardened NNLS entry shared by the
// projection path (serve and Streaming) and the streaming refinement
// sweeps: it first runs the plain solve and, if the solver errors or
// its iterate went non-finite (the divergence that the batch drivers
// return as an error), retries on the Tikhonov-damped
// system (G + λI)·x = f with escalating λ. The damped copy of G is
// drawn from the context workspace, so the common non-degenerate path
// stays allocation-free.
func solveDamped(s nnls.Solver, ctx *nnls.Context, g, f, xInit, dst *mat.Dense) (nnls.Stats, error) {
	st, err := s.SolveCtx(ctx, g, f, xInit, dst)
	if err == nil && dst.IsFinite() {
		return st, nil
	}
	k := g.Rows
	lam := 0.0
	for i := 0; i < k; i++ {
		lam += g.At(i, i)
	}
	lam = tikhonovBase * (lam/float64(k) + 1)
	var ws *mat.Workspace
	if ctx != nil {
		ws = ctx.WS
	}
	gd := ws.Get(k, k)
	defer ws.Put(gd)
	for try := 0; try < tikhonovTries; try++ {
		gd.CopyFrom(g)
		for i := 0; i < k; i++ {
			gd.Set(i, i, gd.At(i, i)+lam)
		}
		st2, err2 := s.SolveCtx(ctx, gd, f, nil, dst)
		st.Add(st2)
		if err2 == nil && dst.IsFinite() {
			return st, nil
		}
		lam *= tikhonovStep
	}
	if err == nil {
		err = fmt.Errorf("solver iterate went non-finite")
	}
	return st, fmt.Errorf("core: NNLS solve failed even with Tikhonov damping up to λ=%g (rank-deficient system): %w", lam, err)
}
