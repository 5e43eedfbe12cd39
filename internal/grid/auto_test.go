// The grid decision itself lives in costmodel.Plan; what it inherits
// from this package is pinned here, through Plan: Factorizations'
// ascending-pr order is the tie-break, Feasible is the filter, Choose
// is the fallback and ErrNoFeasibleGrid the typed error.
package grid_test

import (
	"errors"
	"strings"
	"testing"

	"hpcnmf/internal/costmodel"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/perf"
)

// plan prices a dense m×n rank-k problem on p ranks under Edison-like
// constants (kept literal so the test does not move with perf.Edison).
func plan(p, m, n, k int) ([]costmodel.GridCandidate, error) {
	pb := costmodel.Problem{M: m, N: n, K: k, NNZ: int64(m) * int64(n)}
	return costmodel.Plan(pb, p, perf.Model{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-10})
}

func TestAutoPicksArgmin(t *testing.T) {
	// A square problem on p = 12 has its winner in the middle of the
	// enumeration, not at either end.
	ranked, err := plan(12, 1000, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g := ranked[0].Grid; g != (grid.Grid{PR: 3, PC: 4}) {
		t.Fatalf("row 0 = %dx%d, want 3x4", g.PR, g.PC)
	}
	for _, c := range ranked[1:] {
		if c.Seconds < ranked[0].Seconds {
			t.Fatalf("%v priced %v below row 0's %v", c.Grid, c.Seconds, ranked[0].Seconds)
		}
	}
}

func TestAutoTieBreaksTowardSmallPR(t *testing.T) {
	// On a square matrix pr×pc and pc×pr cost exactly the same; each
	// tied pair must keep Factorizations' ascending-pr order.
	ranked, err := plan(8, 1000, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []grid.Grid{{PR: 2, PC: 4}, {PR: 4, PC: 2}, {PR: 1, PC: 8}, {PR: 8, PC: 1}}
	for i, c := range ranked {
		if c.Grid != want[i] {
			t.Fatalf("ranked[%d] = %v, want %v", i, c.Grid, want[i])
		}
	}
	if ranked[0].Seconds != ranked[1].Seconds || ranked[2].Seconds != ranked[3].Seconds {
		t.Fatalf("mirror grids not tied: %v", ranked)
	}
}

func TestAutoDefaultCostMatchesChoose(t *testing.T) {
	// Where every factorization is feasible and bandwidth dominates,
	// the full model's argmin is the paper's closed-form rule.
	for _, tc := range []struct{ m, n, p int }{
		{1_000_000, 100, 16}, {10000, 10000, 16}, {4000, 1000, 16}, {977, 1024, 12},
	} {
		ranked, err := plan(tc.p, tc.m, tc.n, 1)
		if err != nil {
			t.Fatalf("Plan(%d, %d, %d): %v", tc.p, tc.m, tc.n, err)
		}
		if want := grid.Choose(tc.m, tc.n, tc.p); ranked[0].Grid != want {
			t.Fatalf("Plan(%d, %dx%d) row 0 = %v, Choose = %v", tc.p, tc.m, tc.n, ranked[0].Grid, want)
		}
	}
}

func TestAutoSkipsInfeasibleCandidates(t *testing.T) {
	// p=6 on a 4x1000 matrix: 6x1 exceeds the 4 rows, so the plan
	// holds the other three shapes, never the infeasible one.
	ranked, err := plan(6, 4, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("%d rows, want the 3 feasible factorizations of 6: %v", len(ranked), ranked)
	}
	for _, c := range ranked {
		if c.Grid.PR > 4 {
			t.Fatalf("plan holds infeasible %dx%d", c.Grid.PR, c.Grid.PC)
		}
	}
}

func TestAutoNoFeasibleGridErrors(t *testing.T) {
	for _, tc := range []struct {
		name       string
		p, m, n, k int
	}{
		{"prime p larger than both dims", 7, 5, 5, 1},
		{"tiny matrix large rank", 4, 6, 6, 5},
		{"rank exceeds both dims", 1, 3, 3, 4},
	} {
		ranked, err := plan(tc.p, tc.m, tc.n, tc.k)
		if !errors.Is(err, grid.ErrNoFeasibleGrid) {
			t.Fatalf("%s: Plan(%d, %dx%d, k=%d) error = %v, want ErrNoFeasibleGrid",
				tc.name, tc.p, tc.m, tc.n, tc.k, err)
		}
		// The message must explain every rejection, not just fail.
		if !strings.Contains(err.Error(), "x") || !strings.Contains(err.Error(), "k=") {
			t.Fatalf("%s: unhelpful error %q", tc.name, err)
		}
		// The one row is the grid a run falls back to.
		if want := grid.Choose(tc.m, tc.n, tc.p); len(ranked) != 1 || ranked[0].Grid != want {
			t.Fatalf("%s: rows %v, want only Choose's %v", tc.name, ranked, want)
		}
	}
}

func TestAutoValidatesArguments(t *testing.T) {
	for name, args := range map[string][4]int{
		"p=0":  {0, 10, 10, 1},
		"m=0":  {2, 0, 10, 1},
		"n=-1": {2, 10, -1, 1},
		"k=0":  {2, 10, 10, 0},
	} {
		ranked, err := plan(args[0], args[1], args[2], args[3])
		if err == nil || len(ranked) != 0 {
			t.Fatalf("%s: Plan accepted invalid input (rows %v, err %v)", name, ranked, err)
		}
		if errors.Is(err, grid.ErrNoFeasibleGrid) {
			t.Fatalf("%s: argument validation misreported as infeasibility: %v", name, err)
		}
	}
}
