package costmodel

import (
	"fmt"
	"sort"
	"strings"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/partition"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/sparse"
)

// Seconds prices the prediction under a machine model: its
// per-iteration flops, messages and words through Model.Seconds, NLS
// excluded as in Advise.
func (p Prediction) Seconds(model perf.Model) float64 {
	return model.Seconds(p.FlopsMM+p.FlopsGram, p.TotalMsgs(), p.TotalWords())
}

// Problem is what the grid decision is made about: an M×N data matrix
// with NNZ stored entries (M·N when dense) factorized at rank K. CSR
// is the matrix itself when it is stored sparse, nil otherwise.
type Problem struct {
	M, N, K int
	NNZ     int64
	CSR     *sparse.CSR
}

// GridCandidate pairs one pr×pc factorization of p with the model's
// per-iteration traffic prediction and its α-β-γ price.
type GridCandidate struct {
	Grid    grid.Grid
	Pred    Prediction
	Seconds float64
}

// Price is the model's per-iteration forecast of HPC-NMF on grid g:
// HPCExact at the critical-path rank's nonzero count. For a CSR that
// is the heaviest block of g's 2D tiling, not the average — on skewed
// matrices (power-law graphs) the heaviest tile carries several times
// nnz/p, and by how much differs from grid to grid. Dense storage
// splits evenly, NNZ/p. O(nnz) per call for a CSR. Every forecast the
// repo shows or ranks by comes from here.
func (pb Problem) Price(g grid.Grid, model perf.Model) GridCandidate {
	rankNNZ := pb.NNZ / int64(g.Size())
	if pb.CSR != nil {
		rankNNZ = int64(partition.Heaviest(partition.BlockNNZ(pb.CSR, g)))
	}
	pred := HPCExact(pb.M, pb.N, pb.K, g, rankNNZ)
	return GridCandidate{Grid: g, Pred: pred, Seconds: pred.Seconds(model)}
}

// Plan is the §5.2 grid decision, made once: every pr×pc
// factorization of p that passes grid.Feasible, priced by Price and
// ranked cheapest first (ties keep ascending-pr order). Row 0 is the
// grid RunParallel runs on; AutoGrid, PredictGrids, Advise,
// AdviseAlgorithmGrid and `nmfrun -alg auto` read the same slice.
//
// When no factorization is feasible — a prime p larger than
// min(m, n), or a matrix too small for the rank — the slice holds the
// one grid a run falls back to, the closed-form grid.Choose, and the
// error wraps grid.ErrNoFeasibleGrid and lists each rejection. Invalid
// arguments return a nil slice and a plain error.
func Plan(pb Problem, p int, model perf.Model) ([]GridCandidate, error) {
	if p < 1 || pb.M < 1 || pb.N < 1 || pb.K < 1 {
		return nil, fmt.Errorf("costmodel: p=%d ranks on a %dx%d matrix at rank k=%d, want all ≥ 1", p, pb.M, pb.N, pb.K)
	}
	var ranked []GridCandidate
	var rejected []string
	for _, g := range grid.Factorizations(p) {
		if err := grid.Feasible(pb.M, pb.N, pb.K, g.PR, g.PC); err != nil {
			rejected = append(rejected, err.Error())
			continue
		}
		ranked = append(ranked, pb.Price(g, model))
	}
	if len(ranked) == 0 {
		fallback := pb.Price(grid.Choose(pb.M, pb.N, p), model)
		return []GridCandidate{fallback}, fmt.Errorf(
			"costmodel: %w: no pr×pc factorization of p=%d fits a %dx%d matrix at rank k=%d (%s)",
			grid.ErrNoFeasibleGrid, p, pb.M, pb.N, pb.K, strings.Join(rejected, "; "))
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Seconds < ranked[j].Seconds })
	return ranked, nil
}
