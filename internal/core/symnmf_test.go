package core

import (
	"math"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// blockGraph builds a symmetric adjacency matrix with c planted
// dense diagonal blocks (communities) plus weak off-block noise.
func blockGraph(n, c int, seed uint64) (*mat.Dense, []int) {
	s := rng.New(seed)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i * c / n
	}
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := 0.02
			if labels[i] == labels[j] {
				p = 0.5
			}
			if s.Float64() < p {
				a.Set(i, j, 1)
				a.Set(j, i, 1)
			}
		}
	}
	return a, labels
}

func TestSymNMFFitsSymmetricLowRank(t *testing.T) {
	// A = H*·H*ᵀ exactly: SymNMF must reach a small residual.
	s := rng.New(3)
	hstar := mat.NewDense(20, 3)
	hstar.RandomUniform(s)
	a := mat.NewDense(20, 20)
	mat.ParMulABtTo(a, hstar, hstar, nil)
	res, err := RunSymNMF(WrapDense(a), SymOptions{K: 3, MaxIter: 300, Seed: 1, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	last := res.RelErr[len(res.RelErr)-1]
	if last > 0.05 {
		t.Fatalf("SymNMF residual %g on an exactly symmetric rank-3 matrix", last)
	}
	if res.H.Min() < 0 {
		t.Fatal("H not non-negative")
	}
	// The symmetric reconstruction must match the reported error.
	rec := mat.NewDense(20, 20)
	mat.ParMulABtTo(rec, res.H, res.H, nil)
	rec.Sub(a)
	direct := rec.FrobeniusNorm() / a.FrobeniusNorm()
	if math.Abs(direct-last) > 1e-8 {
		t.Fatalf("reported error %g vs direct %g", last, direct)
	}
}

func TestSymNMFClustersBlockGraph(t *testing.T) {
	a, labels := blockGraph(90, 3, 7)
	res, err := RunSymNMF(WrapDense(a), SymOptions{K: 3, MaxIter: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Assign each node to its dominant component; nodes in the same
	// planted community must mostly share an assignment.
	assign := make([]int, 90)
	for i := range assign {
		best, bestV := 0, -1.0
		for c := 0; c < 3; c++ {
			if v := res.H.At(i, c); v > bestV {
				best, bestV = c, v
			}
		}
		assign[i] = best
	}
	// Majority label per planted community.
	correct := 0
	for c := 0; c < 3; c++ {
		counts := map[int]int{}
		total := 0
		for i := range labels {
			if labels[i] == c {
				counts[assign[i]]++
				total++
			}
		}
		best := 0
		for _, v := range counts {
			if v > best {
				best = v
			}
		}
		correct += best
	}
	if acc := float64(correct) / 90; acc < 0.9 {
		t.Fatalf("SymNMF community recovery %.2f < 0.9", acc)
	}
}

func TestSymNMFSparseInput(t *testing.T) {
	// Symmetric sparse matrix via B + Bᵀ pattern.
	b := sparse.RandomER(40, 40, 0.05, rng.New(9))
	var coords []sparse.Coord
	for i := 0; i < 40; i++ {
		for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
			coords = append(coords,
				sparse.Coord{Row: i, Col: b.ColIdx[p], Val: 1},
				sparse.Coord{Row: b.ColIdx[p], Col: i, Val: 1})
		}
	}
	a := sparse.FromCoords(40, 40, coords)
	res, err := RunSymNMF(WrapSparse(a), SymOptions{K: 4, MaxIter: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.H.IsFinite() || res.H.Min() < 0 {
		t.Fatal("invalid H from sparse SymNMF")
	}
}

func TestSymNMFRejectsNonSquare(t *testing.T) {
	a := WrapDense(mat.NewDense(4, 5))
	if _, err := RunSymNMF(a, SymOptions{K: 2}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	sq := WrapDense(mat.NewDense(4, 4))
	if _, err := RunSymNMF(sq, SymOptions{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := RunSymNMF(sq, SymOptions{K: 9}); err == nil {
		t.Fatal("K>n accepted")
	}
}

func TestSymNMFErrorTrendsDown(t *testing.T) {
	a, _ := blockGraph(60, 2, 11)
	res, err := RunSymNMF(WrapDense(a), SymOptions{K: 2, MaxIter: 40, Seed: 5, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The penalized objective is not the reported fit, so strict
	// monotonicity is not guaranteed; require overall improvement.
	if res.RelErr[len(res.RelErr)-1] >= res.RelErr[0] {
		t.Fatalf("fit did not improve: %g -> %g", res.RelErr[0], res.RelErr[len(res.RelErr)-1])
	}
}

func TestParallelSymNMFMatchesSequential(t *testing.T) {
	a, _ := blockGraph(48, 3, 23)
	opts := SymOptions{K: 3, MaxIter: 6, Seed: 4, Tol: -1}
	seq, err := RunSymNMF(WrapDense(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 4} {
		par, err := RunSymNMFParallel(WrapDense(a), p, opts)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if par.Iterations != seq.Iterations {
			t.Fatalf("p=%d: %d iters vs %d", p, par.Iterations, seq.Iterations)
		}
		if d := par.H.MaxDiff(seq.H); d > 1e-6 {
			t.Errorf("p=%d: H differs by %g", p, d)
		}
		for i := range seq.RelErr {
			if diff := par.RelErr[i] - seq.RelErr[i]; diff > 1e-8 || diff < -1e-8 {
				t.Errorf("p=%d: error trajectory diverged at iter %d", p, i)
				break
			}
		}
	}
}

func TestParallelSymNMFRejectsOversplit(t *testing.T) {
	a := WrapDense(mat.NewDense(4, 4))
	if _, err := RunSymNMFParallel(a, 8, SymOptions{K: 2}); err == nil {
		t.Fatal("oversplit accepted")
	}
}
