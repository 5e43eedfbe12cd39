package costmodel

import (
	"fmt"
	"sort"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/perf"
)

// UpdaterCoeffs models one update rule's local NLS cost inside the
// shared communication skeleton: the per-column flops of its k-rank
// solve (the only per-iteration cost the skeleton's Table 2 terms
// exclude) and its relative convergence rate. The skeleton cost is
// updater-independent, so these two coefficients are exactly what the
// joint algorithm × grid pricing needs on top of HPCExact.
type UpdaterCoeffs struct {
	Name string
	// K3, K2, K1 price one right-hand-side column of the local solve
	// as (K3·k³ + K2·k² + K1·k) flops per sweep/round. K3 is only
	// nonzero for the exact methods, which amortize a k³/3 Cholesky
	// across same-passive-set column groups.
	K3, K2, K1 float64
	// Sweeps is the default inner sweep (or pivoting round) count the
	// per-column price is multiplied by.
	Sweeps float64
	// IterFactor is the relative number of alternating iterations the
	// rule needs to reach a fixed tolerance, normalized to BPP = 1 —
	// the empirical ordering of Kim & Park (BPP ≈ exact ANLS fastest,
	// HALS close, PGD and MU trailing) that makes a cheap-per-
	// iteration rule lose an end-to-end comparison.
	IterFactor float64
}

// NLSFlops is the modeled local NLS flops of one alternating
// iteration on a rank owning wCols columns of the W solve (its m/p
// rows of W) and hCols of the H solve (its n/p columns of H).
func (u UpdaterCoeffs) NLSFlops(k, wCols, hCols int) float64 {
	kf := float64(k)
	perCol := u.K3*kf*kf*kf + u.K2*kf*kf + u.K1*kf
	return u.Sweeps * perCol * float64(wCols+hCols)
}

// Updaters is the coefficient table for the built-in update rules.
// Flop coefficients follow the implementations in internal/nnls: MU
// and PGD are dominated by one (two for PGD's trial step) k×k
// Gram-vector product per column per sweep; HALS by its k rank-one
// row sweeps; BPP by the grouped Cholesky solves — k³/3 per group,
// amortized here over 8 columns sharing a passive set, plus the
// per-column triangular solves and dual evaluation over 3 pivot
// rounds. Those two constants were not fitted to a run: they are the
// shape of a dense input at small rank, and only there are they close
// (DSYN 1440×960 at k = 8 measures 17 columns per group and 1.1
// rounds per column; at k = 20, 1.8 and 1.8; at k = 50, 1.1 and 2.6).
// The solver reports both (nnls.Stats.Groups and ColumnRounds,
// nmf.nls.groups and nmf.nls.column_rounds on /metrics): on the
// power-law sparse shape (Webbase 12 000, k = 20) they are 1.4 columns
// per group and 2.5 rounds per column at a mean passive set of 7 of 20,
// so there BPP runs ~6× the factorizations priced here, each ~25×
// smaller.
func Updaters() []UpdaterCoeffs {
	return []UpdaterCoeffs{
		{Name: "MU", K2: 2, K1: 6, Sweeps: 1, IterFactor: 3.0},
		{Name: "HALS", K2: 2, K1: 4, Sweeps: 1, IterFactor: 1.3},
		{Name: "PGD", K2: 4, K1: 8, Sweeps: 1, IterFactor: 2.0},
		{Name: "BPP", K3: 1.0 / 24, K2: 3, K1: 2, Sweeps: 3, IterFactor: 1.0},
	}
}

// UpdaterCoeffsFor returns the coefficients for a named updater
// ("BPP", "MU", ...), or an error for updaters the model has no
// coefficients for.
func UpdaterCoeffsFor(name string) (UpdaterCoeffs, error) {
	for _, u := range Updaters() {
		if u.Name == name {
			return u, nil
		}
	}
	return UpdaterCoeffs{}, fmt.Errorf("costmodel: no coefficients for updater %q", name)
}

// AlgorithmGridChoice is one row of the joint algorithm × grid
// forecast: an updater on the plan's grid with the end-to-end price.
type AlgorithmGridChoice struct {
	Updater UpdaterCoeffs
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

// AlgorithmGrid prices every built-in updater on best, a Plan's row 0
// for pb: the updater's NLS flops are added to the row's skeleton
// forecast and the total is scaled by its relative
// iterations-to-tolerance. The NLS term does not depend on the grid's
// shape — each rank solves m/p + n/p columns on any pr×pc — so the
// skeleton's argmin is every updater's argmin and one Plan serves all
// four. Rows come back cheapest first.
func AlgorithmGrid(pb Problem, best GridCandidate, model perf.Model) []AlgorithmGridChoice {
	p := best.Grid.Size()
	var out []AlgorithmGridChoice
	for _, u := range Updaters() {
		iter := best.Seconds + model.Gamma*u.NLSFlops(pb.K, (pb.M+p-1)/p, (pb.N+p-1)/p)
		out = append(out, AlgorithmGridChoice{
			Updater:     u,
			Grid:        best.Grid,
			Pred:        best.Pred,
			IterSeconds: iter,
			Seconds:     iter * u.IterFactor,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seconds < out[j].Seconds })
	return out
}
