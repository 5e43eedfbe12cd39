package core

import (
	"testing"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
)

func countZeros(m *mat.Dense) int {
	n := 0
	for _, v := range m.Data {
		if v == 0 {
			n++
		}
	}
	return n
}

func TestL1IncreasesSparsity(t *testing.T) {
	a := lowRankDense(40, 30, 6, 0.1, 51)
	base := testOpts(6)
	base.MaxIter = 10
	plain, err := RunSequential(WrapDense(a), base)
	if err != nil {
		t.Fatal(err)
	}
	reg := base
	reg.L1W, reg.L1H = 0.5, 0.5
	sparse, err := RunSequential(WrapDense(a), reg)
	if err != nil {
		t.Fatal(err)
	}
	if countZeros(sparse.W) <= countZeros(plain.W) {
		t.Fatalf("L1 did not sparsify W: %d zeros vs %d without", countZeros(sparse.W), countZeros(plain.W))
	}
	if sparse.W.Min() < 0 || sparse.H.Min() < 0 {
		t.Fatal("regularized factors not non-negative")
	}
}

func TestL2ShrinksFactors(t *testing.T) {
	a := lowRankDense(40, 30, 4, 0.05, 53)
	base := testOpts(4)
	base.MaxIter = 8
	plain, err := RunSequential(WrapDense(a), base)
	if err != nil {
		t.Fatal(err)
	}
	reg := base
	reg.L2W, reg.L2H = 5.0, 5.0
	shrunk, err := RunSequential(WrapDense(a), reg)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.W.SquaredFrobeniusNorm() >= plain.W.SquaredFrobeniusNorm() {
		t.Fatalf("L2 did not shrink W: %g vs %g",
			shrunk.W.SquaredFrobeniusNorm(), plain.W.SquaredFrobeniusNorm())
	}
	// The fit must degrade only modestly for a moderate λ₂.
	if shrunk.RelErr[len(shrunk.RelErr)-1] > 3*plain.RelErr[len(plain.RelErr)-1]+0.2 {
		t.Fatalf("L2 destroyed the fit: %g vs %g",
			shrunk.RelErr[len(shrunk.RelErr)-1], plain.RelErr[len(plain.RelErr)-1])
	}
}

// TestRegularizedParallelConsistency: regularization is applied to
// the shared Gram and local RHS identically on every rank, so the
// parallel algorithms must still match the sequential one exactly.
func TestRegularizedParallelConsistency(t *testing.T) {
	a := WrapDense(lowRankDense(36, 28, 4, 0.05, 57))
	opts := testOpts(4)
	opts.MaxIter = 4
	opts.L1W, opts.L2W, opts.L1H, opts.L2H = 0.2, 0.1, 0.3, 0.05
	seq, err := RunSequential(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := RunHPC(a, grid.New(2, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := hpc.W.MaxDiff(seq.W); d > 1e-6 {
		t.Fatalf("regularized HPC W differs by %g", d)
	}
	nv, err := RunNaive(a, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := nv.H.MaxDiff(seq.H); d > 1e-6 {
		t.Fatalf("regularized Naive H differs by %g", d)
	}
}

func TestNegativeRegularizationRejected(t *testing.T) {
	a := WrapDense(lowRankDense(10, 8, 2, 0, 59))
	opts := Options{K: 2, L2W: -1}
	if _, err := RunSequential(a, opts); err == nil {
		t.Fatal("negative L2W accepted")
	}
}

func TestApplyRegNoCopyWhenZero(t *testing.T) {
	ws := mat.NewWorkspace()
	g := mat.NewDense(3, 3)
	f := mat.NewDense(3, 2)
	g2, f2, gTmp, fTmp := applyRegInto(ws, g, f, 0, 0)
	if g2 != g || f2 != f || gTmp != nil || fTmp != nil {
		t.Fatal("applyRegInto copied with zero weights")
	}
	g3, f3, gTmp, fTmp := applyRegInto(ws, g, f, 1, 1)
	if g3 == g || f3 == f || gTmp != g3 || fTmp != f3 {
		t.Fatal("applyRegInto did not return workspace copies")
	}
	if g.At(0, 0) != 0 || f.At(0, 0) != 0 {
		t.Fatal("applyRegInto mutated inputs")
	}
	if g3.At(0, 0) != 1 || g3.At(0, 1) != 0 || f3.At(0, 0) != -0.5 {
		t.Fatalf("applyRegInto values wrong: g=%v f=%v", g3.At(0, 0), f3.At(0, 0))
	}
}

func TestSequentialPGDSolver(t *testing.T) {
	a := lowRankDense(30, 24, 3, 0.01, 61)
	opts := testOpts(3)
	opts.Solver = SolverPGD
	opts.Sweeps = 10
	res, err := RunSequential(WrapDense(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.RelErr); i++ {
		if res.RelErr[i] > res.RelErr[i-1]*(1+1e-9) {
			t.Fatalf("PGD-ANLS objective increased at %d", i)
		}
	}
}
