package nnls

import (
	"fmt"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
)

// Context carries the reusable resources a solver may draw on: a
// workspace arena for temporaries and the kernel thread pool. A nil
// *Context (or nil fields) is valid and means "allocate fresh, run
// serial", so solvers never need to special-case it beyond the
// resources accessor.
type Context struct {
	// WS supplies scratch matrices; steady-state Solve calls with the
	// same shapes draw every temporary from it without allocating.
	WS *mat.Workspace
	// Pool, when non-nil, is the run's kernel pool (see internal/par).
	// MU and PGD split their G·X product across it; BPP hands its
	// column chunks to the pool's workers, one chunk state per worker;
	// HALS sweeps serially. Results are bitwise independent of the pool
	// size for every solver.
	Pool *par.Pool
}

// resources unpacks a possibly-nil context.
func (c *Context) resources() (*mat.Workspace, *par.Pool) {
	if c == nil {
		return nil, nil
	}
	return c.WS, c.Pool
}

// ContextSolver is implemented by solvers whose steady state runs
// allocation-free: SolveCtx writes the solution into dst (k×r, shaped
// by the caller) and draws all temporaries from ctx. The sweep
// solvers (MU, HALS, PGD) implement it, as does BPP, which keeps its
// per-worker chunk scratch on the solver instance (making that
// instance single-caller under SolveCtx); the active-set solver goes
// through the SolveWith fallback.
type ContextSolver interface {
	Solver
	// SolveCtx solves min ½xᵀGx − fᵀx, x ≥ 0 into dst. xInit seeds the
	// iterate (nil = cold start); xInit == dst is allowed and updates
	// the iterate in place.
	SolveCtx(ctx *Context, g, f, xInit, dst *mat.Dense) (Stats, error)
}

// SolveWith runs solver s into dst, using SolveCtx when s supports it
// and falling back to Solve plus a copy otherwise. It is the one call
// sites use so every solver works in the workspace-threaded iteration
// loops, allocation-free where the solver allows it.
func SolveWith(s Solver, ctx *Context, g, f, xInit, dst *mat.Dense) (Stats, error) {
	if cs, ok := s.(ContextSolver); ok {
		return cs.SolveCtx(ctx, g, f, xInit, dst)
	}
	x, st, err := s.Solve(g, f, xInit)
	if err != nil {
		return st, err
	}
	dst.CopyFrom(x)
	return st, nil
}

// checkDst validates the destination shape for SolveCtx.
func checkDst(f, dst *mat.Dense) error {
	if dst == nil {
		return fmt.Errorf("nnls: nil destination")
	}
	if dst.Rows != f.Rows || dst.Cols != f.Cols {
		return fmt.Errorf("nnls: destination is %dx%d, want %dx%d", dst.Rows, dst.Cols, f.Rows, f.Cols)
	}
	return nil
}

// startInto seeds dst with the warm start (or the all-ones cold start
// MU requires). xInit == dst leaves the iterate untouched.
func startInto(dst, xInit *mat.Dense) {
	if xInit == nil {
		dst.Fill(1)
		return
	}
	if xInit != dst {
		dst.CopyFrom(xInit)
	}
}
