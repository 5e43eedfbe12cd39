package nnls

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
)

// mul returns A·B in a fresh matrix, computed by the production kernel.
func mul(a, b *mat.Dense) *mat.Dense {
	c := mat.NewDense(a.Rows, b.Cols)
	mat.ParMulTo(c, a, b, nil)
	return c
}

// gram returns AᵀA in a fresh matrix, computed by the production kernel.
func gram(a *mat.Dense) *mat.Dense {
	g := mat.NewDense(a.Cols, a.Cols)
	mat.ParGramTo(g, a, nil)
	return g
}

// solve runs s with no context into a fresh X. An exact solver that
// runs out of rounds returns its clamped iterate with ErrNotConverged;
// after any other error X is nil.
func solve(s Solver, g, f, xInit *mat.Dense) (*mat.Dense, Stats, error) {
	x := mat.NewDense(f.Rows, f.Cols)
	st, err := s.SolveCtx(nil, g, f, xInit, x)
	if err != nil && !errors.Is(err, ErrNotConverged) {
		return nil, st, err
	}
	return x, st, err
}

// oracle solves every column of F by OracleNNLS into a fresh X. It
// reads G's and F's entries and calls no kernel.
func oracle(g, f *mat.Dense) (*mat.Dense, error) {
	x := mat.NewDense(f.Rows, f.Cols)
	col := make([]float64, f.Rows)
	for c := 0; c < f.Cols; c++ {
		for i := range col {
			col[i] = f.Data[i*f.Cols+c]
		}
		xc, err := OracleNNLS(g.Data, col)
		if err != nil {
			return nil, err
		}
		for i, v := range xc {
			x.Data[i*x.Cols+c] = v
		}
	}
	return x, nil
}

// problem builds a well-conditioned NNLS instance: C (m×k) with
// uniform entries, B (m×r); returns G = CᵀC, F = CᵀB and (C, B) for
// objective evaluation.
func problem(m, k, r int, seed uint64) (g, f, c, b *mat.Dense) {
	s := rng.New(seed)
	c = mat.NewDense(m, k)
	c.RandomUniform(s)
	b = mat.NewDense(m, r)
	// Mix of columns: some in the cone of C (easy), some with negative
	// components (forces active constraints).
	for i := range b.Data {
		b.Data[i] = s.Float64()*2 - 0.5
	}
	g = gram(c)
	f = mat.NewDense(c.Cols, b.Cols)
	mat.ParMulAtBTo(f, c, b, nil)
	return g, f, c, b
}

// objective evaluates ‖C·X − B‖²_F.
func objective(c, b, x *mat.Dense) float64 {
	r := mul(c, x)
	for i, v := range b.Data {
		r.Data[i] -= v
	}
	return r.SquaredFrobeniusNorm()
}

// kktResidual returns the largest KKT violation of X for (G, F):
// max over entries of |min(x,0)|, |min(y,0)|, |x·y| where y = GX − F.
func kktResidual(g, f, x *mat.Dense) float64 {
	y := mul(g, x)
	for i, v := range f.Data {
		y.Data[i] -= v
	}
	worst := 0.0
	for i := range x.Data {
		xi, yi := x.Data[i], y.Data[i]
		if -xi > worst {
			worst = -xi
		}
		if -yi > worst {
			worst = -yi
		}
		if v := math.Abs(xi * yi); v > worst {
			worst = v
		}
	}
	return worst
}

func TestBPPSatisfiesKKT(t *testing.T) {
	for _, tc := range []struct{ m, k, r int }{{20, 4, 6}, {50, 10, 15}, {30, 8, 1}, {100, 16, 40}} {
		g, f, _, _ := problem(tc.m, tc.k, tc.r, uint64(tc.m*tc.k))
		x, st, err := solve(NewBPP(), g, f, nil)
		if err != nil {
			t.Fatalf("BPP failed on %dx%dx%d: %v", tc.m, tc.k, tc.r, err)
		}
		if x.Min() < 0 {
			t.Fatalf("BPP returned negative entries")
		}
		if res := kktResidual(g, f, x); res > 1e-8 {
			t.Fatalf("BPP KKT residual %g on %dx%dx%d", res, tc.m, tc.k, tc.r)
		}
		if st.Flops == 0 || st.Iterations == 0 {
			t.Fatal("BPP stats not recorded")
		}
	}
}

// TestActiveSetSatisfiesKKT checks the Lawson–Hanson oracle itself:
// its solution meets the NNLS optimality conditions, measured with the
// production product, which the oracle does not use.
func TestActiveSetSatisfiesKKT(t *testing.T) {
	g, f, _, _ := problem(40, 8, 10, 7)
	x, err := oracle(g, f)
	if err != nil {
		t.Fatalf("oracle failed: %v", err)
	}
	if res := kktResidual(g, f, x); res > 1e-7 {
		t.Fatalf("oracle KKT residual %g", res)
	}
}

func TestBPPMatchesActiveSet(t *testing.T) {
	// Positive definite G makes the NNLS solution unique, so BPP must
	// agree with the Lawson–Hanson oracle, which shares no kernel with
	// it.
	for seed := uint64(0); seed < 10; seed++ {
		g, f, _, _ := problem(30, 6, 8, 100+seed)
		xb, _, err := solve(NewBPP(), g, f, nil)
		if err != nil {
			t.Fatalf("BPP failed: %v", err)
		}
		xa, err := oracle(g, f)
		if err != nil {
			t.Fatalf("oracle failed: %v", err)
		}
		if d := xb.MaxDiff(xa); d > 1e-7 {
			t.Fatalf("seed %d: BPP and the oracle disagree by %g", seed, d)
		}
	}
}

func TestBPPUnconstrainedCase(t *testing.T) {
	// If the unconstrained solution is already non-negative, BPP must
	// return it exactly: X* with strictly positive entries.
	k, r := 5, 4
	s := rng.New(42)
	xstar := mat.NewDense(k, r)
	for i := range xstar.Data {
		xstar.Data[i] = 0.5 + s.Float64()
	}
	c := mat.NewDense(30, k)
	c.RandomUniform(s)
	g := gram(c)
	f := mul(g, xstar) // F = G·X* so X* is the global optimum
	x, _, err := solve(NewBPP(), g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := x.MaxDiff(xstar); d > 1e-8 {
		t.Fatalf("BPP missed interior optimum by %g", d)
	}
}

func TestBPPActiveConstraints(t *testing.T) {
	// F = G·X* with X* having zero rows: solution must recover the
	// zeros (they sit exactly on the boundary).
	k, r := 6, 5
	s := rng.New(43)
	xstar := mat.NewDense(k, r)
	for i := 0; i < k; i++ {
		for j := 0; j < r; j++ {
			if (i+j)%2 == 0 {
				xstar.Set(i, j, 1+s.Float64())
			}
		}
	}
	c := mat.NewDense(40, k)
	c.RandomUniform(s)
	g := gram(c)
	f := mul(g, xstar)
	x, _, err := solve(NewBPP(), g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := x.MaxDiff(xstar); d > 1e-7 {
		t.Fatalf("BPP missed boundary optimum by %g", d)
	}
}

func TestBPPWarmStart(t *testing.T) {
	g, f, _, _ := problem(40, 8, 12, 11)
	cold, stCold, err := solve(NewBPP(), g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-starting from the solution itself must converge immediately
	// (1 round) to the same answer.
	warm, stWarm, err := solve(NewBPP(), g, f, cold)
	if err != nil {
		t.Fatal(err)
	}
	if d := warm.MaxDiff(cold); d > 1e-9 {
		t.Fatalf("warm start changed solution by %g", d)
	}
	if stWarm.Iterations > stCold.Iterations {
		t.Fatalf("warm start took %d rounds, cold %d", stWarm.Iterations, stCold.Iterations)
	}
}

func TestBPPGroupingEquivalence(t *testing.T) {
	// Grouped and ungrouped BPP must produce identical solutions —
	// grouping is a performance optimization only (DESIGN ablation 3).
	g, f, _, _ := problem(50, 10, 20, 13)
	grouped := &BPP{Grouping: true}
	ungrouped := &BPP{Grouping: false}
	xg, _, err := solve(grouped, g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	xu, _, err := solve(ungrouped, g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := xg.MaxDiff(xu); d > 1e-9 {
		t.Fatalf("grouping changed the solution by %g", d)
	}
}

func TestBPPPropertyKKT(t *testing.T) {
	f := func(seed uint64) bool {
		g, fm, _, _ := problem(25, 5, 7, seed)
		x, _, err := solve(NewBPP(), g, fm, nil)
		if err != nil {
			return false
		}
		return x.Min() >= 0 && kktResidual(g, fm, x) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMUDecreasesObjective(t *testing.T) {
	g, f, c, b := problem(40, 6, 10, 17)
	xInit := mat.NewDense(6, 10)
	xInit.Fill(0.5)
	prev := objective(c, b, xInit)
	x := xInit
	mu := NewMU(1)
	for i := 0; i < 20; i++ {
		var err error
		x, _, err = solve(mu, g, f, x)
		if err != nil {
			t.Fatal(err)
		}
		cur := objective(c, b, x)
		if cur > prev*(1+1e-9) {
			t.Fatalf("MU increased objective at sweep %d: %g -> %g", i, prev, cur)
		}
		prev = cur
	}
	if x.Min() < 0 {
		t.Fatal("MU left the nonnegative orthant")
	}
}

func TestHALSDecreasesObjective(t *testing.T) {
	g, f, c, b := problem(40, 6, 10, 19)
	xInit := mat.NewDense(6, 10)
	xInit.Fill(0.5)
	prev := objective(c, b, xInit)
	x := xInit
	hals := NewHALS(1)
	for i := 0; i < 20; i++ {
		var err error
		x, _, err = solve(hals, g, f, x)
		if err != nil {
			t.Fatal(err)
		}
		cur := objective(c, b, x)
		if cur > prev*(1+1e-9) {
			t.Fatalf("HALS increased objective at sweep %d: %g -> %g", i, prev, cur)
		}
		prev = cur
	}
	if x.Min() < 0 {
		t.Fatal("HALS left the nonnegative orthant")
	}
}

func TestHALSApproachesBPP(t *testing.T) {
	// Many HALS sweeps should approach the exact solution.
	g, f, c, b := problem(40, 5, 8, 23)
	exact, _, err := solve(NewBPP(), g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.NewDense(5, 8)
	x.Fill(1)
	hals := NewHALS(200)
	x, _, err = solve(hals, g, f, x)
	if err != nil {
		t.Fatal(err)
	}
	objExact := objective(c, b, exact)
	objHALS := objective(c, b, x)
	if objHALS > objExact*1.001+1e-9 {
		t.Fatalf("HALS objective %g vs exact %g", objHALS, objExact)
	}
}

func TestSolversRejectBadDims(t *testing.T) {
	g := mat.NewDense(3, 3)
	f := mat.NewDense(4, 2) // wrong row count
	for _, m := range Methods {
		s := m.New(1)
		if _, _, err := solve(s, g, f, nil); err == nil {
			t.Fatalf("%s accepted mismatched dims", s.Name())
		}
	}
}

func TestSolverNames(t *testing.T) {
	for _, tc := range []struct {
		s    Solver
		want string
	}{{NewBPP(), "BPP"}, {NewMU(1), "MU"}, {NewHALS(1), "HALS"}, {NewPGD(1), "PGD"}} {
		if tc.s.Name() != tc.want {
			t.Fatalf("Name = %q, want %q", tc.s.Name(), tc.want)
		}
	}
}

func TestHALSZeroGramRow(t *testing.T) {
	// A zero diagonal entry (collapsed component) must not produce
	// NaNs; the row should be zeroed.
	g := mat.FromRows([][]float64{{1, 0}, {0, 0}})
	f := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	x, _, err := solve(NewHALS(3), g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !x.IsFinite() {
		t.Fatal("HALS produced non-finite values on singular Gram")
	}
	if x.At(1, 0) != 0 || x.At(1, 1) != 0 {
		t.Fatal("collapsed component row not zeroed")
	}
}

func TestStatsAdd(t *testing.T) {
	var s Stats
	s.Add(Stats{Flops: 10, Iterations: 2})
	s.Add(Stats{Flops: 5, Iterations: 1})
	if s.Flops != 15 || s.Iterations != 3 {
		t.Fatalf("Stats.Add = %+v", s)
	}
}

// TestPriceIsTheCharge: a sweep method's cost-model price is the flops
// its solver charges — Stats.Flops is Iterations sweeps of r columns at
// K2·k² + K1·k each — for every row without a Cholesky term.
func TestPriceIsTheCharge(t *testing.T) {
	for _, m := range Methods {
		if m.K3 != 0 {
			continue
		}
		for _, k := range []int{1, 5, 16} {
			for _, r := range []int{1, 7} {
				for _, sweeps := range []int{1, 3} {
					_, st, err := solve(m.New(sweeps), randomSPD(k, uint64(k)), randomRHS(k, r, uint64(r)), nil)
					if err != nil {
						t.Fatalf("%s: %v", m.Name, err)
					}
					perCol := int64(m.K2)*int64(k*k) + int64(m.K1)*int64(k)
					if want := int64(st.Iterations) * int64(r) * perCol; st.Flops != want || st.Iterations != sweeps {
						t.Errorf("%s k=%d r=%d sweeps=%d: charged %d flops over %d sweeps, priced %d", m.Name, k, r, sweeps, st.Flops, st.Iterations, want)
					}
				}
			}
		}
	}
}
