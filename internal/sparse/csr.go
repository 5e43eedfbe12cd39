// Package sparse implements compressed sparse row (CSR) matrices and
// the sparse-times-dense kernels the NMF algorithms need. A sparse
// data matrix A participates in exactly two products per alternating
// iteration — A·Hᵀ (tall output) and Wᵀ·A (wide output) — and both
// run one row-gather kernel: Wᵀ·A runs it on A's transpose, a CSR built
// once on first use and cached beside A. That kernel, plus
// construction, slicing and generation, is the whole surface.
package sparse

import (
	"fmt"
	"sort"
	"sync"

	"hpcnmf/internal/mat"
)

// CSR is a sparse matrix in compressed sparse row format.
//
// The multiply kernels treat a CSR as immutable once it is first used
// in a product: the Wᵀ·A kernel lazily caches the transpose, itself a
// CSR (see spmm.go), so mutate RowPtr/ColIdx/Val only during
// construction, before the first multiply.
type CSR struct {
	Rows, Cols int
	// RowPtr has length Rows+1; row i's entries live at indices
	// [RowPtr[i], RowPtr[i+1]) of ColIdx and Val.
	RowPtr []int
	// ColIdx holds the column of each stored entry, sorted within a row.
	ColIdx []int
	// Val holds the value of each stored entry.
	Val []float64

	// tOnce/tr cache the transpose built on first use by the Wᵀ·A
	// kernel (amortized across the iterations of a factorization run,
	// which multiply by the same tile every time).
	tOnce sync.Once
	tr    *CSR
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// Coord is a coordinate-format entry used to build CSR matrices.
type Coord struct {
	Row, Col int
	Val      float64
}

// FromCoords builds a CSR matrix from coordinate entries. Duplicate
// coordinates are summed in input order. Entries are sorted; zero
// values are kept (callers may want explicit zeros), and duplicates
// collapsing to zero remain stored.
//
// Ordering is a two-pass counting sort — stable by column, then by
// row — so construction is O(nnz + rows + cols) instead of the
// O(nnz·log nnz) comparison sort the seed used; on bulk loads
// (generators, Matrix Market files) the sort dominated construction.
func FromCoords(rows, cols int, entries []Coord) *CSR {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparse: coordinate (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols))
		}
	}
	nnz := len(entries)
	// Pass 1: stable counting sort by column.
	count := make([]int, cols+1)
	for _, e := range entries {
		count[e.Col+1]++
	}
	for c := 0; c < cols; c++ {
		count[c+1] += count[c]
	}
	byCol := make([]Coord, nnz)
	for _, e := range entries {
		byCol[count[e.Col]] = e
		count[e.Col]++
	}
	// Pass 2: stable counting sort by row. Stability preserves the
	// column order within each row, so the result is (row, col) sorted
	// with duplicates adjacent and still in input order.
	count = make([]int, rows+1)
	for _, e := range byCol {
		count[e.Row+1]++
	}
	for r := 0; r < rows; r++ {
		count[r+1] += count[r]
	}
	sorted := make([]Coord, nnz)
	for _, e := range byCol {
		sorted[count[e.Row]] = e
		count[e.Row]++
	}
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j = j + 1
		}
		a.ColIdx = append(a.ColIdx, sorted[i].Col)
		a.Val = append(a.Val, v)
		a.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for i := 0; i < rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a
}

// ToDense expands the matrix to dense form.
func (a *CSR) ToDense() *mat.Dense {
	d := mat.NewDense(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := d.Row(i)
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			row[a.ColIdx[p]] = a.Val[p]
		}
	}
	return d
}

// At returns entry (i, j), zero if not stored. O(log nnz(row i)).
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	p := lo + sort.SearchInts(a.ColIdx[lo:hi], j)
	if p < hi && a.ColIdx[p] == j {
		return a.Val[p]
	}
	return 0
}

// Submatrix returns the block rows [r0,r1) × cols [c0,c1), with
// column indices shifted to the block's local frame.
func (a *CSR) Submatrix(r0, r1, c0, c1 int) *CSR {
	if r0 < 0 || r1 < r0 || r1 > a.Rows || c0 < 0 || c1 < c0 || c1 > a.Cols {
		panic("sparse: Submatrix out of range")
	}
	b := &CSR{Rows: r1 - r0, Cols: c1 - c0, RowPtr: make([]int, r1-r0+1)}
	for i := r0; i < r1; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		// Binary search the column window within the sorted row.
		s := lo + sort.SearchInts(a.ColIdx[lo:hi], c0)
		e := lo + sort.SearchInts(a.ColIdx[lo:hi], c1)
		for p := s; p < e; p++ {
			b.ColIdx = append(b.ColIdx, a.ColIdx[p]-c0)
			b.Val = append(b.Val, a.Val[p])
		}
		b.RowPtr[i-r0+1] = len(b.Val)
	}
	return b
}

// SquaredFrobeniusNorm returns ‖A‖_F².
func (a *CSR) SquaredFrobeniusNorm() float64 {
	s := 0.0
	for _, v := range a.Val {
		s += v * v
	}
	return s
}

// Equal reports whether a and b represent the same matrix (same shape
// and identical stored patterns/values within tol). Patterns must
// match exactly; this is intended for tests.
func (a *CSR) Equal(b *CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for p := range a.Val {
		if a.ColIdx[p] != b.ColIdx[p] {
			return false
		}
		d := a.Val[p] - b.Val[p]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}
