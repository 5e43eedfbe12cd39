// Package partition analyzes and improves the nonzero load balance of
// 2D sparse-matrix distributions — the second future-work direction
// of the paper (§7: "our 2D distribution is based on evenly dividing
// rows and columns, it does not necessarily load balance the nonzeros
// of the matrix, which can lead to load imbalance in MM").
//
// For skewed matrices like web graphs, a heavy row or column
// concentrates nonzeros in one grid block, so that block's SpMM
// dominates the iteration. The standard cheap remedy is to apply
// random row and column permutations before distributing: heavy rows
// scatter across blocks and the expected per-block nonzero count
// becomes uniform. This package measures the imbalance of a
// distribution and implements the permutation fix.
package partition

import (
	"fmt"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// BlockNNZ returns the nonzero count of every grid block under the
// standard contiguous block distribution: entry (i, j) of the result
// is nnz(A_ij) for the pr×pc grid.
func BlockNNZ(a *sparse.CSR, g grid.Grid) [][]int {
	counts := make([][]int, g.PR)
	for i := range counts {
		counts[i] = make([]int, g.PC)
	}
	// Map each stored entry to its block by binary-search-free
	// arithmetic over the block boundaries.
	rowOf := blockIndex(a.Rows, g.PR)
	colOf := blockIndex(a.Cols, g.PC)
	for i := 0; i < a.Rows; i++ {
		bi := rowOf(i)
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			counts[bi][colOf(a.ColIdx[p])]++
		}
	}
	return counts
}

// blockIndex returns a function mapping a global index to its block
// number under the BlockCounts distribution (first n%p blocks one
// larger).
func blockIndex(n, p int) func(int) int {
	q, r := n/p, n%p
	split := r * (q + 1)
	return func(idx int) int {
		if q == 0 {
			return idx // r == n: every block has one element
		}
		if idx < split {
			return idx / (q + 1)
		}
		return r + (idx-split)/q
	}
}

// Heaviest returns the largest per-block nonzero count — the work of
// the critical-path rank in the sparse multiply.
func Heaviest(counts [][]int) int {
	m := 0
	for _, row := range counts {
		for _, c := range row {
			m = max(m, c)
		}
	}
	return m
}

// Imbalance returns max/mean of the per-block nonzero counts — 1.0 is
// perfect balance; the webbase-like graphs typically start far above.
func Imbalance(counts [][]int) float64 {
	total, blocks := 0, 0
	for _, row := range counts {
		for _, c := range row {
			total += c
			blocks++
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(blocks)
	return float64(Heaviest(counts)) / mean
}

// Permutation is a bijection on [0, n) together with its inverse.
type Permutation struct {
	Forward []int // Forward[old] = new
	Inverse []int // Inverse[new] = old
}

// NewRandomPermutation draws a uniform permutation of size n.
func NewRandomPermutation(n int, s *rng.Stream) Permutation {
	inv := s.Perm(n) // inv[new] = old
	fwd := make([]int, n)
	for newIdx, oldIdx := range inv {
		fwd[oldIdx] = newIdx
	}
	return Permutation{Forward: fwd, Inverse: inv}
}

// Apply returns P·A·Qᵀ: the matrix with rows and columns relabeled by
// the two permutations (row i moves to rowPerm.Forward[i], column j
// to colPerm.Forward[j]). Factor matrices computed on the permuted
// matrix can be mapped back with the Inverse slices.
func Apply(a *sparse.CSR, rowPerm, colPerm Permutation) *sparse.CSR {
	if len(rowPerm.Forward) != a.Rows || len(colPerm.Forward) != a.Cols {
		panic(fmt.Sprintf("partition: permutation sizes %dx%d for %dx%d matrix",
			len(rowPerm.Forward), len(colPerm.Forward), a.Rows, a.Cols))
	}
	coords := make([]sparse.Coord, 0, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		ni := rowPerm.Forward[i]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			coords = append(coords, sparse.Coord{
				Row: ni,
				Col: colPerm.Forward[a.ColIdx[p]],
				Val: a.Val[p],
			})
		}
	}
	return sparse.FromCoords(a.Rows, a.Cols, coords)
}

// Balance applies random row/column permutations and returns the
// permuted matrix plus the permutations (to map factors back).
func Balance(a *sparse.CSR, seed uint64) (*sparse.CSR, Permutation, Permutation) {
	s := rng.New(seed)
	rowPerm := NewRandomPermutation(a.Rows, s)
	colPerm := NewRandomPermutation(a.Cols, s)
	return Apply(a, rowPerm, colPerm), rowPerm, colPerm
}

// Report summarizes the balance improvement for a grid.
type Report struct {
	Grid                grid.Grid
	Before, After       float64 // imbalance max/mean
	MaxBefore, MaxAfter int     // heaviest block nnz
}

// Analyze measures the block imbalance of a on grid g before and
// after random-permutation balancing.
func Analyze(a *sparse.CSR, g grid.Grid, seed uint64) Report {
	before := BlockNNZ(a, g)
	balanced, _, _ := Balance(a, seed)
	after := BlockNNZ(balanced, g)
	return Report{
		Grid:      g,
		Before:    Imbalance(before),
		After:     Imbalance(after),
		MaxBefore: Heaviest(before),
		MaxAfter:  Heaviest(after),
	}
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("grid %dx%d: imbalance %.2f -> %.2f (heaviest block %d -> %d nnz)",
		r.Grid.PR, r.Grid.PC, r.Before, r.After, r.MaxBefore, r.MaxAfter)
}
