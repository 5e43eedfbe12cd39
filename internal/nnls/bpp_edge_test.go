package nnls

import (
	"errors"
	"math"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
)

// Degenerate-input coverage for BPP, pinned against the Lawson–Hanson
// oracle (oracle_test.go): rank-deficient Grams (where the normal equations
// are singular and only the jittered Cholesky path can proceed),
// all-zero and all-negative right-hand sides (whose unique solution
// is exactly zero), and single-column problems (the r=1 base case the
// column-grouping machinery must not disturb).

// rankDeficientProblem builds an NNLS instance whose Gram is exactly
// singular: C gets a duplicated column, so G = CᵀC has rank k-1.
func rankDeficientProblem(m, k, r int, seed uint64) (g, f, c, b *mat.Dense) {
	s := rng.New(seed)
	c = mat.NewDense(m, k)
	c.RandomUniform(s)
	for i := 0; i < m; i++ {
		c.Set(i, k-1, c.At(i, 0)) // duplicate column 0 into the last slot
	}
	b = mat.NewDense(m, r)
	for i := range b.Data {
		b.Data[i] = s.Float64()*2 - 0.5
	}
	g = gram(c)
	f = mat.NewDense(c.Cols, b.Cols)
	mat.ParMulAtBTo(f, c, b, nil)
	return g, f, c, b
}

func TestBPPRankDeficientGram(t *testing.T) {
	// With a singular Gram the minimizer is non-unique, so the pin is
	// against the objective value, not the iterate: BPP must stay
	// finite and nonnegative, nearly satisfy the KKT conditions, and
	// reach an objective no worse than the oracle's. The oracle frees
	// only one of the duplicated columns, so it never factors a
	// singular matrix, while BPP frees both in most columns and takes
	// the jittered solve: the comparison reaches that path.
	for seed := uint64(0); seed < 5; seed++ {
		g, f, c, b := rankDeficientProblem(30, 6, 8, 200+seed)
		xb, _, err := solve(NewBPP(), g, f, nil)
		if err != nil {
			t.Fatalf("seed %d: BPP failed on singular Gram: %v", seed, err)
		}
		if !xb.IsFinite() {
			t.Fatalf("seed %d: BPP produced non-finite entries on singular Gram", seed)
		}
		if xb.Min() < 0 {
			t.Fatalf("seed %d: BPP left the nonnegative orthant", seed)
		}
		// The jittered solve perturbs G by ~1e-12·‖G‖, so the KKT
		// residual is near-exact rather than exact.
		if res := kktResidual(g, f, xb); res > 1e-6 {
			t.Errorf("seed %d: KKT residual %g on singular Gram", seed, res)
		}
		xa, err := oracle(g, f)
		if err != nil {
			t.Fatalf("seed %d: oracle failed on singular Gram: %v", seed, err)
		}
		objB, objA := objective(c, b, xb), objective(c, b, xa)
		if objB > objA*(1+1e-6)+1e-9 {
			t.Errorf("seed %d: BPP objective %g worse than the oracle's %g", seed, objB, objA)
		}
	}
}

func TestBPPAllZeroRHS(t *testing.T) {
	// F = 0 ⇒ the unique solution is X = 0 (the dual y = GX − F = 0 is
	// feasible with an empty passive set). BPP and the oracle must
	// return exactly zero, not merely something tiny.
	g, _, _, _ := problem(25, 5, 7, 31)
	f := mat.NewDense(5, 7)
	xb, _, err := solve(NewBPP(), g, f, nil)
	if err != nil {
		t.Fatalf("BPP failed on zero RHS: %v", err)
	}
	xa, err := oracle(g, f)
	if err != nil {
		t.Fatalf("oracle failed on zero RHS: %v", err)
	}
	for name, x := range map[string]*mat.Dense{"BPP": xb, "oracle": xa} {
		for i, v := range x.Data {
			if v != 0 {
				t.Fatalf("%s: x[%d] = %g on zero RHS, want exactly 0", name, i, v)
			}
		}
	}
}

func TestBPPAllNegativeRHS(t *testing.T) {
	// F < 0 entrywise ⇒ X = 0 is optimal (y = −F > 0 is strictly dual
	// feasible everywhere), again exactly.
	g, f, _, _ := problem(25, 5, 7, 33)
	for i := range f.Data {
		f.Data[i] = -1 - math.Abs(f.Data[i])
	}
	x, _, err := solve(NewBPP(), g, f, nil)
	if err != nil {
		t.Fatalf("BPP failed on negative RHS: %v", err)
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("x[%d] = %g on all-negative RHS, want exactly 0", i, v)
		}
	}
}

func TestBPPSingleColumn(t *testing.T) {
	// r = 1: the grouping machinery degenerates to one group per
	// round. The positive-definite Gram makes the solution unique, so
	// BPP must agree with the oracle column-exactly — with grouping both
	// on and off. A lone column is always solved through
	// mat.SolveSPDInto, so this is where a fault in that kernel shows:
	// a reference that solved through the same kernel would agree with
	// BPP on the wrong answer.
	for seed := uint64(0); seed < 8; seed++ {
		g, f, _, _ := problem(30, 7, 1, 300+seed)
		xa, err := oracle(g, f)
		if err != nil {
			t.Fatalf("seed %d: oracle failed: %v", seed, err)
		}
		for _, bpp := range []*BPP{{Grouping: true}, {Grouping: false}} {
			xb, _, err := solve(bpp, g, f, nil)
			if err != nil {
				t.Fatalf("seed %d grouping=%v: BPP failed: %v", seed, bpp.Grouping, err)
			}
			if d := xb.MaxDiff(xa); d > 1e-7 {
				t.Errorf("seed %d grouping=%v: BPP and the oracle disagree by %g", seed, bpp.Grouping, d)
			}
		}
	}
}

func TestBPPMatchesActiveSetDegenerateShapes(t *testing.T) {
	// Boundary shapes around the grouping and pivoting logic: k = 1
	// (scalar subproblems), k = r = 1, and a wide short problem.
	for _, tc := range []struct {
		name    string
		m, k, r int
	}{
		{"k1", 20, 1, 6},
		{"k1r1", 20, 1, 1},
		{"wide", 12, 3, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, f, _, _ := problem(tc.m, tc.k, tc.r, uint64(41+tc.m+tc.r))
			xb, _, err := solve(NewBPP(), g, f, nil)
			if err != nil {
				t.Fatalf("BPP failed: %v", err)
			}
			xa, err := oracle(g, f)
			if err != nil {
				t.Fatalf("oracle failed: %v", err)
			}
			if d := xb.MaxDiff(xa); d > 1e-7 {
				t.Errorf("BPP and the oracle disagree by %g", d)
			}
		})
	}
}

func TestBPPSolveCtxRejectsBadInput(t *testing.T) {
	g, f, _, _ := problem(20, 4, 5, 51)
	ctx := &Context{}
	s := NewBPP()
	// Mismatched Gram/RHS dims.
	if _, err := s.SolveCtx(ctx, mat.NewDense(3, 3), f, nil, mat.NewDense(4, 5)); err == nil {
		t.Error("SolveCtx accepted mismatched dims")
	}
	// Nil and wrong-shape destinations.
	if _, err := s.SolveCtx(ctx, g, f, nil, nil); err == nil {
		t.Error("SolveCtx accepted a nil destination")
	}
	if _, err := s.SolveCtx(ctx, g, f, nil, mat.NewDense(3, 5)); err == nil {
		t.Error("SolveCtx accepted a wrong-shape destination")
	}
}

func TestBPPExhaustedRoundsStaysFeasible(t *testing.T) {
	// MaxIter too small to converge: BPP must report ErrNotConverged
	// but still hand back a finite, nonnegative (clamped) iterate —
	// the drivers keep iterating with it rather than aborting.
	g, f, _, _ := problem(40, 10, 12, 53)
	s := &BPP{MaxIter: 1, Grouping: true}
	x, st, err := solve(s, g, f, nil)
	if err == nil {
		t.Skip("problem converged in one round; exhaustion path not exercised")
	}
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if x == nil {
		t.Fatal("no iterate returned alongside ErrNotConverged")
	}
	if !x.IsFinite() || x.Min() < 0 {
		t.Fatalf("exhausted iterate not finite-nonnegative: min %g", x.Min())
	}
	if st.Iterations != 1 {
		t.Errorf("stats recorded %d rounds, want 1", st.Iterations)
	}
}
