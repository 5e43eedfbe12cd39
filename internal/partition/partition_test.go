package partition

import (
	"testing"
	"testing/quick"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

func TestBlockNNZSumsToTotal(t *testing.T) {
	a := sparse.RandomER(100, 80, 0.1, rng.New(1))
	g := grid.New(4, 3)
	counts := BlockNNZ(a, g)
	total := 0
	for _, row := range counts {
		for _, c := range row {
			total += c
		}
	}
	if total != a.NNZ() {
		t.Fatalf("block counts sum to %d, nnz is %d", total, a.NNZ())
	}
}

func TestBlockNNZAgainstSubmatrix(t *testing.T) {
	a := sparse.RandomER(37, 29, 0.2, rng.New(2))
	g := grid.New(3, 2)
	counts := BlockNNZ(a, g)
	for i := 0; i < g.PR; i++ {
		r0, r1 := grid.BlockRange(a.Rows, g.PR, i)
		for j := 0; j < g.PC; j++ {
			c0, c1 := grid.BlockRange(a.Cols, g.PC, j)
			want := a.Submatrix(r0, r1, c0, c1).NNZ()
			if counts[i][j] != want {
				t.Fatalf("block (%d,%d): counted %d, submatrix has %d", i, j, counts[i][j], want)
			}
		}
	}
}

func TestBlockIndexMatchesBlockRange(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)%200 + 1
		p := int(pRaw)%16 + 1
		if p > n {
			p = n
		}
		idx := blockIndex(n, p)
		for b := 0; b < p; b++ {
			lo, hi := grid.BlockRange(n, p, b)
			for v := lo; v < hi; v++ {
				if idx(v) != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImbalanceUniform(t *testing.T) {
	counts := [][]int{{10, 10}, {10, 10}}
	if got := Imbalance(counts); got != 1 {
		t.Fatalf("uniform imbalance = %v", got)
	}
	skewed := [][]int{{40, 0}, {0, 0}}
	if got := Imbalance(skewed); got != 4 {
		t.Fatalf("skewed imbalance = %v, want 4", got)
	}
	if got := Imbalance([][]int{{0, 0}}); got != 1 {
		t.Fatalf("empty imbalance = %v", got)
	}
}

func TestPermutationRoundTrip(t *testing.T) {
	s := rng.New(3)
	p := NewRandomPermutation(50, s)
	for old := 0; old < 50; old++ {
		if p.Inverse[p.Forward[old]] != old {
			t.Fatal("Forward/Inverse not inverse of each other")
		}
	}
}

func TestApplyPreservesEntries(t *testing.T) {
	a := sparse.RandomER(20, 15, 0.3, rng.New(4))
	s := rng.New(5)
	rp := NewRandomPermutation(20, s)
	cp := NewRandomPermutation(15, s)
	b := Apply(a, rp, cp)
	if b.NNZ() != a.NNZ() {
		t.Fatalf("permutation changed nnz %d -> %d", a.NNZ(), b.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j, v := a.ColIdx[p], a.Val[p]
			if got := b.At(rp.Forward[i], cp.Forward[j]); got != v {
				t.Fatalf("entry (%d,%d)=%v moved wrong: found %v", i, j, v, got)
			}
		}
	}
}

// TestBalanceImprovesSkewedGraph is the headline property: on a
// power-law graph (the webbase-like case §7 worries about), random
// permutation must substantially reduce the block imbalance.
func TestBalanceImprovesSkewedGraph(t *testing.T) {
	a := sparse.RandomPowerLaw(2000, 4, rng.New(6))
	g := grid.New(4, 4)
	rep := Analyze(a, g, 7)
	if rep.Before < 1.5 {
		t.Skipf("graph not skewed enough to test (imbalance %.2f)", rep.Before)
	}
	if rep.After >= rep.Before {
		t.Fatalf("balancing did not help: %.2f -> %.2f", rep.Before, rep.After)
	}
	// Random permutation cannot split a single hub column across
	// blocks (that needs the graph/hypergraph partitioning the paper
	// defers to future work), so the floor is above 1; require a
	// substantial improvement and a moderate final imbalance.
	if rep.After > 2.5 {
		t.Fatalf("post-balance imbalance %.2f still high", rep.After)
	}
}

// TestBalancePreservesFactorization: permuting rows/columns and
// mapping factors back must leave the achievable objective unchanged
// (NMF is permutation-equivariant). We check the stronger property
// that the permuted matrix has identical singular structure by
// comparing Frobenius norms and row-sum multisets.
func TestBalancePreservesFactorization(t *testing.T) {
	a := sparse.RandomER(30, 25, 0.2, rng.New(8))
	b, rp, _ := Balance(a, 9)
	// Summation order differs, so compare within roundoff.
	if d := b.SquaredFrobeniusNorm() - a.SquaredFrobeniusNorm(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("permutation changed the norm by %g", d)
	}
	// Row nnz multiset preserved under the row mapping.
	for i := 0; i < a.Rows; i++ {
		if j := rp.Forward[i]; a.RowPtr[i+1]-a.RowPtr[i] != b.RowPtr[j+1]-b.RowPtr[j] {
			t.Fatal("row nnz not preserved under permutation")
		}
	}
}

func TestReportString(t *testing.T) {
	a := sparse.RandomPowerLaw(500, 3, rng.New(10))
	rep := Analyze(a, grid.New(2, 2), 11)
	s := rep.String()
	if len(s) == 0 || rep.MaxBefore == 0 {
		t.Fatalf("empty report: %q", s)
	}
}
