package core

import (
	"strconv"
	"strings"
	"testing"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// Edge cases and failure-injection tests: degenerate inputs must
// produce finite factors or clean errors, never NaNs or hangs.

func TestZeroMatrix(t *testing.T) {
	a := WrapDense(mat.NewDense(12, 10))
	opts := testOpts(2)
	res, err := RunSequential(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.W.IsFinite() || !res.H.IsFinite() {
		t.Fatal("zero matrix produced non-finite factors")
	}
	// Relative error of a zero matrix is defined as 0 by convention.
	if res.RelErr[len(res.RelErr)-1] != 0 {
		t.Fatalf("zero-matrix relative error %v", res.RelErr[len(res.RelErr)-1])
	}
	par, err := RunHPC(a, grid.New(2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !par.W.IsFinite() {
		t.Fatal("parallel zero-matrix factors non-finite")
	}
}

func TestRankOne(t *testing.T) {
	// k=1 exercises 1x1 Gram matrices and single-column NLS solves.
	a := lowRankDense(15, 12, 1, 0, 71)
	opts := testOpts(1)
	opts.MaxIter = 10
	res, err := RunSequential(WrapDense(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	if last := res.RelErr[len(res.RelErr)-1]; last > 1e-3 {
		t.Fatalf("rank-1 matrix not recovered: relErr %g", last)
	}
}

func TestFullRank(t *testing.T) {
	// k = min(m, n): NMF can represent A (almost) exactly for
	// non-negative A... not in general, but the solver must stay sane.
	a := lowRankDense(10, 8, 8, 0.1, 73)
	opts := testOpts(8)
	res, err := RunSequential(WrapDense(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.W.IsFinite() || !res.H.IsFinite() {
		t.Fatal("full-rank factors non-finite")
	}
}

func TestZeroRowsAndColumns(t *testing.T) {
	// Empty rows/columns make blocks of A entirely zero; the Gram
	// matrices can go singular mid-iteration. The regularized
	// Cholesky fallback must keep everything finite.
	a := lowRankDense(20, 16, 3, 0, 79)
	for j := 0; j < 16; j++ {
		a.Set(5, j, 0) // zero row
	}
	for i := 0; i < 20; i++ {
		a.Set(i, 7, 0) // zero column
	}
	opts := testOpts(3)
	for _, kind := range []SolverKind{SolverBPP, SolverHALS, SolverMU, SolverPGD} {
		o := opts
		o.Solver = kind
		res, err := RunSequential(WrapDense(a), o)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !res.W.IsFinite() || !res.H.IsFinite() {
			t.Fatalf("%s: non-finite factors with zero rows/cols", kind)
		}
	}
}

func TestEmptySparseMatrix(t *testing.T) {
	a := WrapSparse(sparse.RandomER(16, 12, 0, rng.New(1)))
	res, err := RunHPC(a, grid.New(2, 2), testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.W.IsFinite() {
		t.Fatal("empty sparse matrix produced non-finite factors")
	}
}

func TestHighlyUnevenGrid(t *testing.T) {
	// p close to a dimension: blocks of size 1.
	a := WrapDense(lowRankDense(9, 40, 2, 0.01, 83))
	opts := testOpts(2)
	opts.MaxIter = 3
	seq, err := RunSequential(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunHPC(a, grid.New(9, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := par.W.MaxDiff(seq.W); d > 1e-6 {
		t.Fatalf("size-1 row blocks diverged by %g", d)
	}
}

func TestSingleColumnMatrix(t *testing.T) {
	a := mat.NewDense(30, 1)
	s := rng.New(87)
	a.RandomUniform(s)
	res, err := RunSequential(WrapDense(a), Options{K: 1, MaxIter: 5, Seed: 1, ComputeError: true})
	if err != nil {
		t.Fatal(err)
	}
	// A single column is exactly rank 1.
	if last := res.RelErr[len(res.RelErr)-1]; last > 1e-6 {
		t.Fatalf("single-column fit %g", last)
	}
}

func TestMaxIterZeroUsesDefault(t *testing.T) {
	a := WrapDense(lowRankDense(10, 8, 2, 0, 89))
	res, err := RunSequential(a, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 30 {
		t.Fatalf("default MaxIter: ran %d iterations, want 30", res.Iterations)
	}
}

func TestSolverKindStringsAndUnknown(t *testing.T) {
	for _, k := range []SolverKind{SolverBPP, SolverActiveSet, SolverMU, SolverHALS, SolverPGD} {
		if k.String() == "" || k.New(1) == nil {
			t.Fatalf("solver kind %d broken", k)
		}
	}
	if SolverKind(99).String() != "SolverKind(99)" {
		t.Fatal("unknown kind String wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind New did not panic")
		}
	}()
	SolverKind(99).New(1)
}

// TestParseSolver: the one name parser behind nmfrun -solver,
// nmfserve -solver and the /v1/fit wire field.
func TestParseSolver(t *testing.T) {
	for _, tc := range []struct {
		name string
		want SolverKind
		bad  bool
	}{
		{"bpp", SolverBPP, false},
		{"activeset", SolverActiveSet, false},
		{"mu", SolverMU, false},
		{"hals", SolverHALS, false},
		{"pgd", SolverPGD, false},
		{"BPP", SolverBPP, false},
		{"ActiveSet", SolverActiveSet, false},
		{"Hals", SolverHALS, false},
		{"", 0, true},
		{"simplex", 0, true},
		{"bpp ", 0, true},
		{"SolverKind(0)", 0, true},
	} {
		got, err := ParseSolver(tc.name)
		if tc.bad {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.name)) {
				t.Errorf("ParseSolver(%q) = %v, %v; want an error naming the input", tc.name, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseSolver(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

func TestUnwrapHelpers(t *testing.T) {
	d := mat.NewDense(3, 3)
	s := sparse.RandomER(3, 3, 0.5, rng.New(1))
	if got, ok := UnwrapDense(WrapDense(d)); !ok || got != d {
		t.Fatal("UnwrapDense failed")
	}
	if _, ok := UnwrapDense(WrapSparse(s)); ok {
		t.Fatal("UnwrapDense matched sparse")
	}
	if got, ok := UnwrapSparse(WrapSparse(s)); !ok || got != s {
		t.Fatal("UnwrapSparse failed")
	}
	if _, ok := UnwrapSparse(WrapDense(d)); ok {
		t.Fatal("UnwrapSparse matched dense")
	}
}

// Slicing an explicit InitW/InitH must keep parallel runs identical to
// the sequential one.
func TestExplicitInitParallelConsistency(t *testing.T) {
	a := WrapDense(lowRankDense(36, 28, 4, 0.05, 109))
	w0, h0 := mat.NewDense(36, 4), mat.NewDense(4, 28)
	w0.RandomUniform(rng.New(9))
	h0.RandomUniform(rng.New(10))
	opts := testOpts(4)
	opts.MaxIter = 4
	opts.InitW, opts.InitH = w0, h0
	seq, err := RunSequential(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunHPC(a, grid.New(2, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := par.W.MaxDiff(seq.W); d > 1e-6 {
		t.Fatalf("explicit-init HPC diverged by %g", d)
	}
	nv, err := RunNaive(a, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := nv.H.MaxDiff(seq.H); d > 1e-6 {
		t.Fatalf("explicit-init Naive diverged by %g", d)
	}
}

func TestExplicitInitValidation(t *testing.T) {
	a := WrapDense(lowRankDense(10, 8, 2, 0, 113))
	bad := mat.NewDense(9, 2) // wrong rows
	if _, err := RunSequential(a, Options{K: 2, InitW: bad}); err == nil {
		t.Fatal("wrong-shape InitW accepted")
	}
	neg := mat.NewDense(10, 2)
	neg.Set(0, 0, -1)
	if _, err := RunSequential(a, Options{K: 2, InitW: neg}); err == nil {
		t.Fatal("negative InitW accepted")
	}
}
