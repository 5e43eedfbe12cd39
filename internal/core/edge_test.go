package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
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
	for _, k := range allSolvers() {
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

// allSolvers is every built-in solver kind, one per row of nnls.Methods.
func allSolvers() []SolverKind {
	kinds := make([]SolverKind, len(nnls.Methods))
	for i := range kinds {
		kinds[i] = SolverKind(i)
	}
	return kinds
}

// TestSolverKindIndexesMethods: a SolverKind is its row of the solver
// table — the row's name is the kind's name and its constructor's
// solver's, and ParseSolver maps the name in any letter case back to
// the row — each named constant sits on the row it names, and what lies
// outside the table is refused with every row named.
func TestSolverKindIndexesMethods(t *testing.T) {
	for i, m := range nnls.Methods {
		k := SolverKind(i)
		if k.String() != m.Name {
			t.Errorf("SolverKind(%d).String() = %q, row name %q", i, k.String(), m.Name)
		}
		for _, sweeps := range []int{1, 3} {
			if got := m.New(sweeps).Name(); got != m.Name {
				t.Errorf("row %q builds a solver named %q", m.Name, got)
			}
			if got := k.New(sweeps).Name(); got != m.Name {
				t.Errorf("SolverKind(%d).New builds %q, want row %q", i, got, m.Name)
			}
		}
		mixed := []rune(strings.ToLower(m.Name))
		for j := 0; j < len(mixed); j += 2 {
			mixed[j] = unicode.ToUpper(mixed[j])
		}
		for _, spelling := range []string{strings.ToLower(m.Name), strings.ToUpper(m.Name), string(mixed)} {
			if got, err := ParseSolver(spelling); err != nil || got != k {
				t.Errorf("ParseSolver(%q) = %v, %v; want row %d", spelling, got, err, i)
			}
		}
	}
	for k, name := range map[SolverKind]string{SolverBPP: "BPP", SolverHALS: "HALS", SolverMU: "MU", SolverPGD: "PGD"} {
		if k.String() != name {
			t.Errorf("constant %d is row %q, want %q", int(k), k.String(), name)
		}
	}
	for _, n := range []int{-1, len(nnls.Methods)} {
		if got, want := SolverKind(n).String(), fmt.Sprintf("SolverKind(%d)", n); got != want {
			t.Errorf("out-of-range kind prints %q, want %q", got, want)
		}
	}
	_, err := ParseSolver("simplex")
	for _, m := range nnls.Methods {
		if err == nil || !strings.Contains(err.Error(), strings.ToLower(m.Name)) {
			t.Errorf("ParseSolver(\"simplex\") error %v does not list row %q", err, m.Name)
		}
	}
}

// TestParseSolver: the one name parser behind nmfrun -solver,
// nmfserve -solver and the /v1/fit wire field. A name it refuses —
// Lawson–Hanson's "activeset" among them, a test oracle and not a
// product solver (DESIGN decision 26) — comes back in an error that
// lists the four it takes.
func TestParseSolver(t *testing.T) {
	for _, tc := range []struct {
		name string
		want SolverKind
		bad  bool
	}{
		{"bpp", SolverBPP, false},
		{"activeset", 0, true},
		{"mu", SolverMU, false},
		{"hals", SolverHALS, false},
		{"pgd", SolverPGD, false},
		{"BPP", SolverBPP, false},
		{"ActiveSet", 0, true},
		{"Hals", SolverHALS, false},
		{"", 0, true},
		{"simplex", 0, true},
		{"bpp ", 0, true},
		{"SolverKind(0)", 0, true},
	} {
		got, err := ParseSolver(tc.name)
		if tc.bad {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.name)) || !strings.Contains(err.Error(), "bpp, hals, mu, pgd") {
				t.Errorf("ParseSolver(%q) = %v, %v; want an error naming the input and the valid names", tc.name, got, err)
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
	// The facade's RunParallel path: the grid is picked by the planner.
	auto, err := RunParallelAuto(a, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := max(auto.W.MaxDiff(seq.W), auto.H.MaxDiff(seq.H)); d > 1e-6 {
		t.Fatalf("explicit-init RunParallelAuto diverged by %g", d)
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
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		w0, h0 := mat.NewDense(10, 2), mat.NewDense(2, 8)
		w0.Set(3, 1, v)
		h0.Set(1, 5, v)
		if _, err := RunSequential(a, Options{K: 2, InitW: w0}); err == nil {
			t.Errorf("InitW holding %v accepted", v)
		}
		if _, err := RunSequential(a, Options{K: 2, InitH: h0}); err == nil {
			t.Errorf("InitH holding %v accepted", v)
		}
	}
}

// errOrPanic runs an entry point and returns its error, or an error
// naming the panic it raised.
func errOrPanic(run func() (*Result, error)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	_, err = run()
	return err
}

// TestNonFiniteInputIsAnError: a NaN or +Inf entry in A, dense or CSR,
// ends every entry point with an error that names the input as a
// cause, never with a panic.
func TestNonFiniteInputIsAnError(t *testing.T) {
	const m, n = 16, 12
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		d := lowRankDense(m, n, 2, 0.01, 7)
		d.Set(5, 3, bad)
		var coords []sparse.Coord
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				coords = append(coords, sparse.Coord{Row: i, Col: j, Val: d.At(i, j)})
			}
		}
		for _, a := range []Matrix{WrapDense(d), WrapSparse(sparse.FromCoords(m, n, coords))} {
			_, isSparse := UnwrapSparse(a)
			opts := Options{K: 2, MaxIter: 3, Seed: 1}
			for name, run := range map[string]func() (*Result, error){
				"seq":   func() (*Result, error) { return RunSequential(a, opts) },
				"naive": func() (*Result, error) { return RunNaive(a, 2, opts) },
				"hpc":   func() (*Result, error) { return RunHPC(a, grid.New(2, 2), opts) },
			} {
				if err := errOrPanic(run); err == nil || !strings.Contains(err.Error(), "NaN or ±Inf") {
					t.Errorf("%s sparse=%v, A holding %v: err = %v, want the non-finite input named", name, isSparse, bad, err)
				}
			}
		}
	}
}

// TestSolverOutOfRangeIsAnError: a SolverKind that names no row of
// nnls.Methods is refused by every entry point instead of indexing
// past the table. A custom Update leaves Solver unread, so it is not
// checked then.
func TestSolverOutOfRangeIsAnError(t *testing.T) {
	d := lowRankDense(16, 12, 2, 0.01, 7)
	a := WrapDense(d)
	f := openTileFile(t, writeTileFile(t, d, 4))
	for _, kind := range []SolverKind{-1, SolverKind(len(nnls.Methods)), 99} {
		opts := Options{K: 2, MaxIter: 2, Seed: 1, Solver: kind}
		for name, run := range map[string]func() (*Result, error){
			"seq":   func() (*Result, error) { return RunSequential(a, opts) },
			"naive": func() (*Result, error) { return RunNaive(a, 2, opts) },
			"hpc":   func() (*Result, error) { return RunHPC(a, grid.New(2, 2), opts) },
			"auto":  func() (*Result, error) { return RunParallelAuto(a, 4, opts) },
			"ooc":   func() (*Result, error) { return RunOutOfCore(f, 0, opts) },
			"streaming": func() (*Result, error) {
				_, err := NewStreaming(16, StreamingOptions{K: 2, Window: 4, Solver: kind})
				return nil, err
			},
		} {
			if err := errOrPanic(run); err == nil || !strings.Contains(err.Error(), "unknown solver") {
				t.Errorf("%s with %v: err = %v, want an unknown-solver error", name, kind, err)
			}
		}
		opts.Update = func() Updater { return nnls.NewBPP() }
		if err := errOrPanic(func() (*Result, error) { return RunSequential(a, opts) }); err != nil {
			t.Errorf("%v with a custom Update: %v", kind, err)
		}
	}
}
