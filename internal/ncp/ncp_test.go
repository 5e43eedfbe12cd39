package ncp

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/rng"
)

// mul returns A·B in a fresh matrix, computed by the production kernel.
func mul(a, b *mat.Dense) *mat.Dense {
	c := mat.NewDense(a.Rows, b.Cols)
	mat.ParMulTo(c, a, b, nil)
	return c
}

func randomFactor(rows, r int, seed uint64) *mat.Dense {
	f := mat.NewDense(rows, r)
	f.RandomUniform(rng.New(seed))
	return f
}

func TestTensorAtSet(t *testing.T) {
	x := NewTensor3(2, 3, 4)
	x.Set(1, 2, 3, 5.5)
	if x.At(1, 2, 3) != 5.5 || x.At(0, 0, 0) != 0 {
		t.Fatal("At/Set wrong")
	}
}

func TestFromKruskalRankOne(t *testing.T) {
	// Rank-1: T(i,j,k) = a_i·b_j·c_k exactly.
	a := mat.FromRows([][]float64{{1}, {2}})
	b := mat.FromRows([][]float64{{3}, {4}, {5}})
	c := mat.FromRows([][]float64{{6}, {7}})
	x := FromKruskal(a, b, c)
	if got := x.At(1, 2, 0); got != 2*5*6 {
		t.Fatalf("Kruskal entry = %v, want 60", got)
	}
}

func TestKhatriRao(t *testing.T) {
	a := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	b := mat.FromRows([][]float64{{5, 6}, {7, 8}, {9, 10}})
	kr := KhatriRao(a, b)
	if kr.Rows != 6 || kr.Cols != 2 {
		t.Fatalf("KhatriRao shape %dx%d", kr.Rows, kr.Cols)
	}
	// Row (i=1, j=2) = A(1,:) ∘ B(2,:) = (3·9, 4·10).
	if kr.At(5, 0) != 27 || kr.At(5, 1) != 40 {
		t.Fatalf("KhatriRao row = (%v, %v)", kr.At(5, 0), kr.At(5, 1))
	}
}

// TestMTTKRPAgainstUnfolding validates the fused MTTKRP against the
// definition via explicit matricization and Khatri-Rao product.
func TestMTTKRPAgainstUnfolding(t *testing.T) {
	const i0, j0, k0, r = 4, 5, 3, 2
	a := randomFactor(i0, r, 1)
	b := randomFactor(j0, r, 2)
	c := randomFactor(k0, r, 3)
	x := FromKruskal(a, b, c)

	// Mode-0 unfolding X₀ is I×(J·K) with column j·K+k.
	unfold0 := mat.NewDense(i0, j0*k0)
	for i := 0; i < i0; i++ {
		for j := 0; j < j0; j++ {
			for k := 0; k < k0; k++ {
				unfold0.Set(i, j*k0+k, x.At(i, j, k))
			}
		}
	}
	want0 := mul(unfold0, KhatriRao(b, c))
	got0 := MTTKRP(x, 0, b, c)
	if got0.MaxDiff(want0) > 1e-10 {
		t.Fatalf("mode-0 MTTKRP off by %g", got0.MaxDiff(want0))
	}

	// Mode-1 unfolding X₁ is J×(I·K) with column i·K+k.
	unfold1 := mat.NewDense(j0, i0*k0)
	for i := 0; i < i0; i++ {
		for j := 0; j < j0; j++ {
			for k := 0; k < k0; k++ {
				unfold1.Set(j, i*k0+k, x.At(i, j, k))
			}
		}
	}
	want1 := mul(unfold1, KhatriRao(a, c))
	got1 := MTTKRP(x, 1, a, c)
	if got1.MaxDiff(want1) > 1e-10 {
		t.Fatalf("mode-1 MTTKRP off by %g", got1.MaxDiff(want1))
	}

	// Mode-2 unfolding X₂ is K×(I·J) with column i·J+j.
	unfold2 := mat.NewDense(k0, i0*j0)
	for i := 0; i < i0; i++ {
		for j := 0; j < j0; j++ {
			for k := 0; k < k0; k++ {
				unfold2.Set(k, i*j0+j, x.At(i, j, k))
			}
		}
	}
	want2 := mul(unfold2, KhatriRao(a, b))
	got2 := MTTKRP(x, 2, a, b)
	if got2.MaxDiff(want2) > 1e-10 {
		t.Fatalf("mode-2 MTTKRP off by %g", got2.MaxDiff(want2))
	}
}

func TestHadamard(t *testing.T) {
	a := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	b := mat.FromRows([][]float64{{2, 0}, {1, 3}})
	h := Hadamard(a, b)
	want := mat.FromRows([][]float64{{2, 0}, {3, 12}})
	if h.MaxDiff(want) != 0 {
		t.Fatal("Hadamard wrong")
	}
}

func TestNCPRecoversExactTensor(t *testing.T) {
	// A tensor that is exactly rank-3 non-negative: NCP should reach
	// near-zero relative error.
	const r = 3
	a := randomFactor(8, r, 10)
	b := randomFactor(7, r, 11)
	c := randomFactor(6, r, 12)
	x := FromKruskal(a, b, c)
	res, err := Run(x, Options{Rank: r, MaxIter: 200, Seed: 5, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	last := res.RelErr[len(res.RelErr)-1]
	// ANLS on CP converges linearly and can plateau ("swamps"), so we
	// require near-recovery rather than machine precision.
	if last > 0.01 {
		t.Fatalf("NCP relative error %g on an exactly rank-%d tensor", last, r)
	}
	if res.A.Min() < 0 || res.B.Min() < 0 || res.C.Min() < 0 {
		t.Fatal("NCP factors not non-negative")
	}
}

func TestNCPErrorMonotone(t *testing.T) {
	x := FromKruskal(randomFactor(6, 2, 20), randomFactor(5, 2, 21), randomFactor(4, 2, 22))
	// Add noise so the fit is imperfect but the ANLS descent property
	// must still hold.
	s := rng.New(23)
	for i := range x.Data {
		x.Data[i] += 0.05 * s.Float64()
	}
	res, err := Run(x, Options{Rank: 2, MaxIter: 20, Seed: 5, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.RelErr); i++ {
		if res.RelErr[i] > res.RelErr[i-1]*(1+1e-9) {
			t.Fatalf("objective increased at sweep %d: %g -> %g", i, res.RelErr[i-1], res.RelErr[i])
		}
	}
}

func TestNCPObjectiveMatchesDirect(t *testing.T) {
	x := FromKruskal(randomFactor(5, 2, 30), randomFactor(4, 2, 31), randomFactor(6, 2, 32))
	s := rng.New(33)
	for i := range x.Data {
		x.Data[i] += 0.1 * s.Float64()
	}
	res, err := Run(x, Options{Rank: 2, MaxIter: 5, Seed: 5, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec := FromKruskal(res.A, res.B, res.C)
	num := 0.0
	for i := range x.Data {
		d := x.Data[i] - rec.Data[i]
		num += d * d
	}
	want := math.Sqrt(num) / math.Sqrt(x.SquaredNorm())
	got := res.RelErr[len(res.RelErr)-1]
	if math.Abs(got-want) > 1e-8 {
		t.Fatalf("byproduct error %g vs direct %g", got, want)
	}
}

func TestNCPSolverVariants(t *testing.T) {
	x := FromKruskal(randomFactor(6, 2, 40), randomFactor(6, 2, 41), randomFactor(6, 2, 42))
	for _, solver := range []nnls.Solver{nnls.NewBPP(), nnls.NewHALS(2), nnls.NewMU(2)} {
		res, err := Run(x, Options{Rank: 2, MaxIter: 30, Seed: 5, Solver: solver})
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if last := res.RelErr[len(res.RelErr)-1]; math.IsNaN(last) || last > 0.5 {
			t.Fatalf("%s: relative error %v", solver.Name(), last)
		}
	}
}

func TestNCPRejectsBadRank(t *testing.T) {
	x := NewTensor3(3, 3, 3)
	if _, err := Run(x, Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
}

func TestKruskalNormIdentity(t *testing.T) {
	// ‖[[A,B,C]]‖² = Σ entries of G_A∘G_B∘G_C — the identity the fast
	// objective uses.
	f := func(seed uint64) bool {
		a := randomFactor(4, 2, seed)
		b := randomFactor(3, 2, seed+1)
		c := randomFactor(5, 2, seed+2)
		x := FromKruskal(a, b, c)
		g := Hadamard(Hadamard(mat.Gram(a), mat.Gram(b)), mat.Gram(c))
		return math.Abs(x.SquaredNorm()-traceSum(g)) < 1e-9*(1+x.SquaredNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelNCPMatchesSequential(t *testing.T) {
	x := FromKruskal(randomFactor(12, 3, 70), randomFactor(7, 3, 71), randomFactor(5, 3, 72))
	s := rng.New(73)
	for i := range x.Data {
		x.Data[i] += 0.02 * s.Float64()
	}
	opts := Options{Rank: 3, MaxIter: 6, Seed: 9, Tol: -1}
	seq, err := Run(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 4} {
		par, err := RunParallel(x, p, opts)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if par.Iterations != seq.Iterations {
			t.Fatalf("p=%d: %d sweeps vs %d", p, par.Iterations, seq.Iterations)
		}
		if d := par.A.MaxDiff(seq.A); d > 1e-6 {
			t.Errorf("p=%d: A differs by %g", p, d)
		}
		if d := par.B.MaxDiff(seq.B); d > 1e-6 {
			t.Errorf("p=%d: B differs by %g", p, d)
		}
		if d := par.C.MaxDiff(seq.C); d > 1e-6 {
			t.Errorf("p=%d: C differs by %g", p, d)
		}
		for i := range seq.RelErr {
			if math.Abs(par.RelErr[i]-seq.RelErr[i]) > 1e-8 {
				t.Errorf("p=%d: error trajectory diverged at sweep %d", p, i)
				break
			}
		}
	}
}

// TestParallelNCPSharesOneSolver: every rank calls the one
// Options.Solver instance concurrently with a nil nnls.Context, which
// runs BPP on fresh state, so one shared BPP gives bitwise what the
// default gives.
func TestParallelNCPSharesOneSolver(t *testing.T) {
	x := FromKruskal(randomFactor(60, 5, 80), randomFactor(40, 5, 81), randomFactor(30, 5, 82))
	s := rng.New(83)
	for i := range x.Data {
		x.Data[i] += 0.02 * s.Float64()
	}
	opts := Options{Rank: 5, MaxIter: 20, Seed: 9, Tol: -1}
	want, err := RunParallel(x, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Solver = nnls.NewBPP()
	got, err := RunParallel(x, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.A.Equal(want.A, 0) || !got.B.Equal(want.B, 0) || !got.C.Equal(want.C, 0) || !slices.Equal(got.RelErr, want.RelErr) {
		t.Error("a BPP instance shared by three ranks changed the factors or the error history")
	}
}

func TestParallelNCPRejectsOversplit(t *testing.T) {
	x := NewTensor3(3, 3, 3)
	if _, err := RunParallel(x, 8, Options{Rank: 2}); err == nil {
		t.Fatal("oversplit accepted")
	}
}

func TestSlabRows(t *testing.T) {
	x := NewTensor3(4, 3, 2)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	s := x.slabRows(1, 3)
	if s.I != 2 || s.At(0, 0, 0) != x.At(1, 0, 0) || s.At(1, 2, 1) != x.At(2, 2, 1) {
		t.Fatal("slabRows wrong")
	}
}
