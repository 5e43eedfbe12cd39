package costmodel

import (
	"errors"
	"sort"
	"testing"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/perf"
)

// TestUpdaterCoeffsForKnownAndUnknown: every row of the solver table
// carries a price — it is found by its name, prices a solve above zero
// at a positive sweep count and needs at least BPP's iterations; an
// unknown name is refused.
func TestUpdaterCoeffsForKnownAndUnknown(t *testing.T) {
	for i, m := range nnls.Methods {
		if m.Sweeps <= 0 {
			t.Errorf("%s: priced at %v sweeps, want a positive count", m.Name, m.Sweeps)
		}
		if got, err := nnls.Find(m.Name); err != nil || got != i {
			t.Errorf("Find(%q) = %d, %v; want row %d", m.Name, got, err, i)
		}
		if m.IterFactor < 1 {
			t.Errorf("%s: IterFactor %v < 1 (BPP is the normalization floor)", m.Name, m.IterFactor)
		}
		if m.Flops(8, 20) <= 0 {
			t.Errorf("%s: Flops not positive", m.Name)
		}
	}
	if _, err := nnls.Find("simplex"); err == nil {
		t.Error("Find accepted an unknown updater")
	}
}

func TestNLSFlopsScalesWithColumns(t *testing.T) {
	i, err := nnls.Find("BPP")
	if err != nil {
		t.Fatal(err)
	}
	u := nnls.Methods[i]
	base := u.Flops(8, 20)
	if got := u.Flops(8, 40); got != 2*base {
		t.Errorf("doubling columns: %v, want %v", got, 2*base)
	}
}

func TestAutoAlgorithmGridRanksAndCovers(t *testing.T) {
	const m, n, k, p = 4096, 2048, 16, 8
	e := edisonLike()
	pb := Problem{M: m, N: n, K: k, NNZ: m * n}
	ranked, err := Plan(pb, p, e)
	if err != nil {
		t.Fatal(err)
	}
	choices := AlgorithmGrid(pb, ranked[0], e)
	if len(choices) != len(nnls.Methods) {
		t.Fatalf("%d rows, want one per row of the solver table (%d)", len(choices), len(nnls.Methods))
	}
	if !sort.SliceIsSorted(choices, func(i, j int) bool { return choices[i].Seconds < choices[j].Seconds }) {
		t.Error("choices not sorted cheapest-first")
	}
	seen := map[string]bool{}
	for _, ch := range choices {
		seen[ch.Updater.Name] = true
		if nnls.Methods[ch.Kind].Name != ch.Updater.Name {
			t.Errorf("%s: Kind %d is row %s", ch.Updater.Name, ch.Kind, nnls.Methods[ch.Kind].Name)
		}
		if ch.Grid != ranked[0].Grid || ch.Pred != ranked[0].Pred {
			t.Errorf("%s: priced on %v, want the plan's row 0 %v", ch.Updater.Name, ch.Grid, ranked[0].Grid)
		}
		if ch.IterSeconds <= ranked[0].Seconds {
			t.Errorf("%s: IterSeconds %v not above skeleton cost %v", ch.Updater.Name, ch.IterSeconds, ranked[0].Seconds)
		}
		if ch.Seconds != ch.IterSeconds*ch.Updater.IterFactor {
			t.Errorf("%s: Seconds %v != IterSeconds*IterFactor %v", ch.Updater.Name, ch.Seconds, ch.IterSeconds*ch.Updater.IterFactor)
		}
	}
	for _, m := range nnls.Methods {
		if !seen[m.Name] {
			t.Errorf("no row for %s", m.Name)
		}
	}
}

func TestAutoAlgorithmGridInfeasible(t *testing.T) {
	// k larger than any block of every factorization of p: the plan
	// surfaces its typed error next to the fallback grid, and the
	// updater rows are priced on that grid, not on a fabricated one.
	e := edisonLike()
	pb := Problem{M: 6, N: 6, K: 5, NNZ: 36}
	ranked, err := Plan(pb, 4, e)
	if !errors.Is(err, grid.ErrNoFeasibleGrid) {
		t.Fatalf("Plan error = %v on an infeasible problem, want ErrNoFeasibleGrid", err)
	}
	for _, ch := range AlgorithmGrid(pb, ranked[0], e) {
		if ch.Grid != grid.Choose(6, 6, 4) {
			t.Errorf("%s: grid %v, want the fallback %v", ch.Updater.Name, ch.Grid, grid.Choose(6, 6, 4))
		}
	}
}

// edisonLike is a fixed α ≫ β ≫ γ machine, so the assertions do not
// move with perf.Edison.
func edisonLike() perf.Model {
	return perf.Model{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-10}
}
