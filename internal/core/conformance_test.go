package core

import (
	"math"
	"testing"

	"hpcnmf/internal/grid"
)

// conformanceSolvers is the algorithm roster of the differential
// conformance suites: every update rule the skeleton can run — the
// inexact sweeps (MU, HALS, PGD) and the exact ANLS/BPP plug-in.
var conformanceSolvers = []SolverKind{SolverMU, SolverHALS, SolverPGD, SolverBPP}

// TestConformanceAllGridsMatchSequential is the differential grid
// conformance suite: every pr×pc factorization of every p in
// {1, 2, 3, 4, 6, 8} — including the degenerate 1×p and p×1 shapes —
// must produce the same factors as the sequential driver from the
// same seed, for each update rule (MU, HALS, PGD, BPP). The dims are
// chosen so every shape is feasible (m/8 = 6 ≥ k, n/8 = 5 ≥ k) and
// exercise uneven block splits (40/3, 48/6, …). Each algorithm is a
// named subtest so CI's per-algorithm matrix legs can -run filter
// them individually; CI runs every leg under -race as the
// `conformance` job.
func TestConformanceAllGridsMatchSequential(t *testing.T) {
	const m, n, k = 48, 40, 4
	a := WrapDense(lowRankDense(m, n, k, 0.02, 3))
	for _, solver := range conformanceSolvers {
		t.Run(solver.String(), func(t *testing.T) {
			opts := Options{K: k, MaxIter: 5, Seed: 11, Solver: solver, ComputeError: true}
			seq, err := RunSequential(a, opts)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, p := range []int{1, 2, 3, 4, 6, 8} {
				for _, g := range grid.Factorizations(p) {
					par, err := RunHPC(a, g, opts)
					if err != nil {
						t.Fatalf("grid %dx%d: %v", g.PR, g.PC, err)
					}
					if d := par.W.MaxDiff(seq.W); d > 1e-6 {
						t.Errorf("grid %dx%d: W diverges from sequential by %g", g.PR, g.PC, d)
					}
					if d := par.H.MaxDiff(seq.H); d > 1e-6 {
						t.Errorf("grid %dx%d: H diverges from sequential by %g", g.PR, g.PC, d)
					}
					if len(par.RelErr) != len(seq.RelErr) {
						t.Errorf("grid %dx%d: %d error samples, sequential %d",
							g.PR, g.PC, len(par.RelErr), len(seq.RelErr))
						continue
					}
					for i := range par.RelErr {
						if math.Abs(par.RelErr[i]-seq.RelErr[i]) > 1e-8 {
							t.Errorf("grid %dx%d: RelErr[%d] = %v, sequential %v",
								g.PR, g.PC, i, par.RelErr[i], seq.RelErr[i])
							break
						}
					}
				}
			}
		})
	}
}

// TestRunParallelAutoRecordsModeledPick: the autotuned entry point
// must run on the cost model's argmin grid and record the choice and
// its forecast on the Result.
func TestRunParallelAutoRecordsModeledPick(t *testing.T) {
	const m, n, k = 64, 48, 4
	a := WrapDense(lowRankDense(m, n, k, 0.02, 5))
	res, err := RunParallelAuto(a, 4, Options{K: k, MaxIter: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.GridAuto {
		t.Error("GridAuto not set by the autotuned path")
	}
	if res.Grid.PR*res.Grid.PC != 4 {
		t.Errorf("Result.Grid = %v, not a factorization of 4", res.Grid)
	}
	if res.GridPredictedSeconds <= 0 {
		t.Errorf("GridPredictedSeconds = %v, want > 0", res.GridPredictedSeconds)
	}
	// The pick must agree with an explicit run on the same grid.
	exp, err := RunHPC(a, res.Grid, Options{K: k, MaxIter: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.W.MaxDiff(exp.W); d != 0 {
		t.Errorf("autotuned run differs from explicit run on its grid by %g", d)
	}
}

// TestRunParallelAutoFallsBackWhenInfeasible: when the feasibility
// rule k ≤ min(m/pr, n/pc) rejects every factorization, the auto path
// must degrade to the closed-form grid.Choose instead of failing, and
// must not claim a cost-model pick.
func TestRunParallelAutoFallsBackWhenInfeasible(t *testing.T) {
	// Every factorization of p = 4 breaks k ≤ min(m/pr, n/pc): 4x1 and
	// 1x4 leave one row or column per rank, 2x2 leaves three.
	const m, n, k = 6, 6, 4
	a := WrapDense(lowRankDense(m, n, 2, 0.02, 5))
	res, err := RunParallelAuto(a, 4, Options{K: k, MaxIter: 2, Seed: 9})
	if err != nil {
		t.Fatalf("fallback path failed: %v", err)
	}
	if res.GridAuto {
		t.Error("fallback run still claims GridAuto")
	}
	want := grid.Choose(m, n, 4)
	if res.Grid != want {
		t.Errorf("fallback grid %v, want Choose's %v", res.Grid, want)
	}
}

// copiedBlocks is a dense Matrix whose every block is a copy — what
// denseMatrix.Block returned before full-width blocks became views.
type copiedBlocks struct{ denseMatrix }

func (a copiedBlocks) Block(r0, r1, c0, c1 int) Matrix {
	return denseMatrix{d: a.d.Submatrix(r0, r1, c0, c1)}
}

// TestDenseBlockViewsAreReadOnly: a dense block that spans all columns
// aliases A instead of copying it (pr×1 grids, the naive layout's row
// slab). Every layout that takes such a block must leave A bit for bit
// as it was and produce the factors it produces from copied blocks.
func TestDenseBlockViewsAreReadOnly(t *testing.T) {
	const m, n, k = 48, 40, 4
	d := lowRankDense(m, n, k, 0.02, 3)
	before := d.Clone()

	blk, _ := UnwrapDense(WrapDense(d).Block(8, 24, 0, n))
	if &blk.Data[0] != &d.Data[8*n] || cap(blk.Data) != len(blk.Data) || blk.Rows != 16 || blk.Cols != n {
		t.Fatalf("full-width block is not a capacity-clipped %dx%d view of rows [8,24)", 16, n)
	}
	if part, _ := UnwrapDense(WrapDense(d).Block(8, 24, 0, n-1)); &part.Data[0] == &d.Data[8*n] {
		t.Fatal("a block narrower than A aliases it")
	}

	layouts := []struct {
		name string
		run  func(Matrix, Options) (*Result, error)
	}{
		{"hpc2x1", func(a Matrix, o Options) (*Result, error) { return RunHPC(a, grid.Grid{PR: 2, PC: 1}, o) }},
		{"hpc1x2", func(a Matrix, o Options) (*Result, error) { return RunHPC(a, grid.Grid{PR: 1, PC: 2}, o) }},
		{"naive", func(a Matrix, o Options) (*Result, error) { return RunNaive(a, 2, o) }},
	}
	for _, solver := range conformanceSolvers {
		opts := Options{K: k, MaxIter: 4, Seed: 11, Solver: solver, ComputeError: true}
		for _, l := range layouts {
			got, err := l.run(WrapDense(d), opts)
			if err != nil {
				t.Fatalf("%v %s: %v", solver, l.name, err)
			}
			want, err := l.run(copiedBlocks{denseMatrix{d: before}}, opts)
			if err != nil {
				t.Fatalf("%v %s on copied blocks: %v", solver, l.name, err)
			}
			if dw, dh := got.W.MaxDiff(want.W), got.H.MaxDiff(want.H); dw != 0 || dh != 0 {
				t.Errorf("%v %s: views changed W by %g, H by %g (want bitwise equal)", solver, l.name, dw, dh)
			}
			for i := range want.RelErr {
				if got.RelErr[i] != want.RelErr[i] {
					t.Errorf("%v %s: RelErr[%d] = %v on views, %v on copies", solver, l.name, i, got.RelErr[i], want.RelErr[i])
				}
			}
			for i, v := range before.Data {
				if math.Float64bits(d.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%v %s: A[%d] changed from %g to %g", solver, l.name, i, v, d.Data[i])
				}
			}
		}
	}
}
