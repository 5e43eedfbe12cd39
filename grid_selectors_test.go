package hpcnmf_test

import (
	"errors"
	"fmt"
	"testing"

	"hpcnmf"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// lowRankDense builds a non-negative m×n matrix of rank k.
func lowRankDense(m, n, k int, seed uint64) hpcnmf.Matrix {
	s := rng.New(seed)
	w, h := mat.NewDense(m, k), mat.NewDense(k, n)
	w.RandomUniform(s)
	h.RandomUniform(s)
	return hpcnmf.WrapDense(mat.Mul(w, h))
}

// checkSelectorsAgree asserts that every way of asking "which grid?"
// names the grid RunParallel runs on, at the price the run records.
func checkSelectorsAgree(t *testing.T, a hpcnmf.Matrix, k, p int, wantAuto bool) {
	t.Helper()
	ranked, rankedErr := hpcnmf.PredictGrids(a, k, p)
	if len(ranked) == 0 {
		t.Fatalf("PredictGrids returned no rows: %v", rankedErr)
	}
	if infeasible := errors.Is(rankedErr, hpcnmf.ErrNoFeasibleGrid); infeasible == wantAuto || (rankedErr != nil && !infeasible) {
		t.Fatalf("PredictGrids error = %v, want ErrNoFeasibleGrid exactly when nothing is feasible (%v)", rankedErr, !wantAuto)
	}
	want := ranked[0]

	auto, autoErr := hpcnmf.AutoGrid(a, k, p)
	if auto != want.Grid || errors.Is(autoErr, hpcnmf.ErrNoFeasibleGrid) == wantAuto {
		t.Errorf("AutoGrid = %v (err %v), PredictGrids[0] = %v", auto, autoErr, want.Grid)
	}
	res, err := hpcnmf.RunParallel(a, p, hpcnmf.Options{K: k, MaxIter: 1, Seed: 3})
	if err != nil {
		t.Fatalf("RunParallel: %v", err)
	}
	if res.Grid != want.Grid {
		t.Errorf("RunParallel ran on %v, AutoGrid/PredictGrids[0] name %v", res.Grid, want.Grid)
	}
	if res.GridPredictedSeconds != want.Seconds {
		t.Errorf("GridPredictedSeconds = %v, PredictGrids[0].Seconds = %v", res.GridPredictedSeconds, want.Seconds)
	}
	if res.GridAuto != wantAuto {
		t.Errorf("GridAuto = %v, want %v", res.GridAuto, wantAuto)
	}
	choices, _ := hpcnmf.AdviseAlgorithmGrid(a, k, p)
	priced := 0
	for _, m := range nnls.Methods {
		if m.Cost != nil {
			priced++
		}
	}
	if len(choices) != priced {
		t.Errorf("AdviseAlgorithmGrid returned %d rows, want one per priced updater (%d)", len(choices), priced)
	}
	for _, ch := range choices {
		if ch.Grid != want.Grid {
			t.Errorf("AdviseAlgorithmGrid prices %s on %v, want %v", ch.Updater.Name, ch.Grid, want.Grid)
		}
	}
	bestRow := fmt.Sprintf("HPC-NMF-%dx%d", want.Grid.PR, want.Grid.PC)
	found := false
	for _, row := range hpcnmf.Advise(a, k, p) {
		if row.Algorithm == bestRow {
			found = true
			if row.Seconds != want.Seconds {
				t.Errorf("Advise prices %s at %v, PredictGrids[0].Seconds = %v", bestRow, row.Seconds, want.Seconds)
			}
		}
	}
	if !found {
		t.Errorf("Advise has no %s row: %v", bestRow, hpcnmf.Advise(a, k, p))
	}
}

// TestGridSelectorsAgree: AutoGrid, PredictGrids, RunParallel,
// Advise and AdviseAlgorithmGrid are reads of one priced plan, so on
// dense and on skewed sparse inputs they name the same grid at the
// same forecast. (Before the plan existed the facade priced an even
// nnz/p split and the driver the heaviest block, and they disagreed
// on half of the power-law cases.)
func TestGridSelectorsAgree(t *testing.T) {
	inputs := map[string]hpcnmf.Matrix{
		"dense/64x48":  lowRankDense(64, 48, 4, 5),
		"dense/40x512": lowRankDense(40, 512, 4, 6),
		"dense/512x40": lowRankDense(512, 40, 4, 7),
	}
	for _, n := range []int{64, 128, 256, 512} {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("powerlaw/n=%d/seed=%d", n, seed)
			inputs[name] = hpcnmf.WrapSparse(sparse.RandomPowerLaw(n, 4, rng.New(seed)))
		}
	}
	for name, a := range inputs {
		for _, p := range []int{2, 4, 6, 8, 16} {
			for _, k := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s/p=%d/k=%d", name, p, k), func(t *testing.T) {
					checkSelectorsAgree(t, a, k, p, true)
				})
			}
		}
	}
}

// TestGridSelectorsAgreeWhenInfeasible: when the feasibility rule
// rejects every factorization (4x1 and 1x4 leave one row or column
// per rank, 2x2 leaves three, and k = 4), every selector names the
// closed-form ChooseGrid fallback RunParallel runs on, next to the
// typed error, and the run does not claim a cost-model pick.
func TestGridSelectorsAgreeWhenInfeasible(t *testing.T) {
	a := lowRankDense(6, 6, 2, 5)
	checkSelectorsAgree(t, a, 4, 4, false)
	if g, _ := hpcnmf.AutoGrid(a, 4, 4); g != hpcnmf.ChooseGrid(6, 6, 4) {
		t.Errorf("infeasible AutoGrid = %v, want ChooseGrid's %v", g, hpcnmf.ChooseGrid(6, 6, 4))
	}
}
