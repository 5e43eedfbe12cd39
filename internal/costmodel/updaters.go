package costmodel

import (
	"sort"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/perf"
)

// AlgorithmGridChoice is one row of the joint algorithm × grid
// forecast: an updater on the plan's grid with the end-to-end price.
type AlgorithmGridChoice struct {
	// Updater is the priced row of nnls.Methods and Kind its index
	// there, which is the core.SolverKind that runs it.
	Updater nnls.Method
	Kind    int
	Grid    grid.Grid
	Pred    Prediction
	// IterSeconds is the modeled per-iteration time: the skeleton's
	// communication + MM + Gram cost on Grid plus the updater's local
	// NLS flops.
	IterSeconds float64
	// Seconds is IterSeconds scaled by the updater's relative
	// iterations-to-tolerance — the time-to-solution ranking key.
	Seconds float64
}

// AlgorithmGrid prices every priced row of nnls.Methods on best, a
// Plan's row 0 for pb: the row's NLS flops on a rank's m/p rows of W
// and n/p columns of H are added to the row's skeleton forecast and
// the total is scaled by its relative iterations-to-tolerance. The NLS
// term does not depend on the grid's shape — each rank solves m/p +
// n/p columns on any pr×pc — so the skeleton's argmin is every
// updater's argmin and one Plan serves them all. Rows come back
// cheapest first.
func AlgorithmGrid(pb Problem, best GridCandidate, model perf.Model) []AlgorithmGridChoice {
	p := best.Grid.Size()
	var out []AlgorithmGridChoice
	for i, u := range nnls.Methods {
		if u.Cost == nil {
			continue
		}
		iter := best.Seconds + model.Gamma*u.Flops(pb.K, (pb.M+p-1)/p+(pb.N+p-1)/p)
		out = append(out, AlgorithmGridChoice{
			Updater:     u,
			Kind:        i,
			Grid:        best.Grid,
			Pred:        best.Pred,
			IterSeconds: iter,
			Seconds:     iter * u.IterFactor,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seconds < out[j].Seconds })
	return out
}
