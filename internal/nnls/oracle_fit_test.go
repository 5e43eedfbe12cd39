package nnls_test

import (
	"math"
	"slices"
	"testing"

	"hpcnmf/internal/core"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/rng"
)

// TestBPPFitTracksOracleANLS: a BPP fit through RunSequential — the
// product's kernels, warm starts, chunked pivoting and the byproduct
// objective — tracks the oracle's straight-line ANLS (OracleANLS,
// oracle_test.go) from the same explicit InitW and InitH, iteration by
// iteration, to 1e-6 in the relative error. A is uniform noise, far
// from rank k, so both factors end with entries pinned at zero (about a
// sixth of each) and every half-step pivots.
//
// Why the tolerance holds: both sides alternate over the same
// subproblems, and each subproblem is strictly convex — H·Hᵀ and WᵀW
// stay positive definite for these full-rank factors — so its NNLS
// solution is unique and the two exact methods reach it whatever their
// pivoting path or warm start. What is left is rounding: products
// summed in other orders, BPP's Cholesky against the oracle's, the
// error from ‖A‖² − 2⟨WᵀA, H⟩ + ⟨WᵀW, HHᵀ⟩ against the residual summed
// entry by entry. That is about 1e-15 of each quantity per step, and
// the error sits near 0.4, so the byproduct form's cancellation
// magnifies it only a few times. Ten alternations measure a largest gap
// of 2.8e-15 (amd64), eight orders inside the bound; a gap near 1e-6
// takes a different iterate, not rounding.
func TestBPPFitTracksOracleANLS(t *testing.T) {
	const m, n, k, iters = 48, 36, 6, 10
	s := rng.New(2016)
	a, w0, h0 := mat.NewDense(m, n), mat.NewDense(m, k), mat.NewDense(k, n)
	a.RandomUniform(s)
	w0.RandomUniform(s)
	h0.RandomUniform(s)
	res, err := core.RunSequential(core.WrapDense(a), core.Options{
		K: k, MaxIter: iters, Solver: core.SolverBPP, ComputeError: true,
		InitW: w0.Clone(), InitH: h0.Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := nnls.OracleANLS(a.Data, m, n, k, slices.Clone(w0.Data), slices.Clone(h0.Data), iters)
	if err != nil {
		t.Fatalf("oracle ANLS: %v", err)
	}
	if len(res.RelErr) != iters {
		t.Fatalf("BPP fit recorded %d errors, want %d", len(res.RelErr), iters)
	}
	for name, f := range map[string]*mat.Dense{"W": res.W, "H": res.H} {
		if !slices.Contains(f.Data, 0) {
			t.Errorf("no entry of %s is pinned at zero: the fit never reaches an active constraint", name)
		}
	}
	worst := 0.0
	for it, e := range res.RelErr {
		d := math.Abs(e - want[it])
		worst = max(worst, d)
		if !(d <= 1e-6) {
			t.Errorf("iteration %d: BPP fit error %.12g, oracle ANLS %.12g (gap %.3g)", it+1, e, want[it], d)
		}
	}
	t.Logf("largest gap over %d iterations: %.3g (final error %.6f)", iters, worst, want[iters-1])
}
