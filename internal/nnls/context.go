package nnls

import (
	"fmt"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
)

// Context carries the reusable resources a solver may draw on: a
// workspace arena for temporaries and the kernel thread pool. A nil
// *Context (or nil fields) is valid and means "allocate fresh, run
// serial". Under a nil *Context no solver touches state kept on its
// instance, so one instance may serve concurrent callers that way.
type Context struct {
	// WS supplies scratch matrices; steady-state SolveCtx calls with the
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

// SolveWith is s.SolveCtx(ctx, g, f, xInit, dst), kept as a function
// for the benchmark module, which calls it.
func SolveWith(s Solver, ctx *Context, g, f, xInit, dst *mat.Dense) (Stats, error) {
	return s.SolveCtx(ctx, g, f, xInit, dst)
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
