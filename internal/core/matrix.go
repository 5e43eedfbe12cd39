package core

import (
	"hpcnmf/internal/mat"
	"hpcnmf/internal/sparse"
)

// Matrix is the data matrix A, dense or CSR: WrapDense and WrapSparse
// are its only implementations (the unexported storage method closes
// the type), so the two data products of the ANLS iteration always
// reach a destination-writing kernel (kernels.go). It exposes block
// extraction for distribution and the counts and norm the objective
// and the cost model read.
type Matrix interface {
	// Dims returns (rows, cols).
	Dims() (m, n int)
	// NNZ returns the number of stored entries (rows·cols when dense);
	// 2·NNZ()·k is the flop count of either factor product.
	NNZ() int
	// SquaredFrobeniusNorm returns ‖A‖²_F.
	SquaredFrobeniusNorm() float64
	// Block returns the sub-matrix of rows [r0,r1) × cols [c0,c1). A
	// block may alias its parent's storage (a dense block spanning all
	// columns does), so it is read-only.
	Block(r0, r1, c0, c1 int) Matrix
	// storage returns the one non-nil storage behind A.
	storage() (*mat.Dense, *sparse.CSR)
}

// UnwrapDense returns the underlying dense storage, if any.
func UnwrapDense(a Matrix) (*mat.Dense, bool) {
	d, _ := a.storage()
	return d, d != nil
}

// UnwrapSparse returns the underlying CSR storage, if any.
func UnwrapSparse(a Matrix) (*sparse.CSR, bool) {
	_, s := a.storage()
	return s, s != nil
}

// denseMatrix adapts *mat.Dense to Matrix.
type denseMatrix struct{ d *mat.Dense }

// WrapDense wraps a dense matrix as a core.Matrix.
func WrapDense(d *mat.Dense) Matrix { return denseMatrix{d: d} }

func (a denseMatrix) Dims() (int, int)                   { return a.d.Rows, a.d.Cols }
func (a denseMatrix) NNZ() int                           { return a.d.Rows * a.d.Cols }
func (a denseMatrix) SquaredFrobeniusNorm() float64      { return a.d.SquaredFrobeniusNorm() }
func (a denseMatrix) storage() (*mat.Dense, *sparse.CSR) { return a.d, nil }
func (a denseMatrix) Block(r0, r1, c0, c1 int) Matrix {
	if n := a.d.Cols; c0 == 0 && c1 == n {
		// Whole rows are contiguous: a header over them, capacity
		// clipped, instead of a copy the ranks only ever read.
		return denseMatrix{d: &mat.Dense{Rows: r1 - r0, Cols: n, Data: a.d.Data[r0*n : r1*n : r1*n]}}
	}
	return denseMatrix{d: a.d.Submatrix(r0, r1, c0, c1)}
}

// sparseMatrix adapts *sparse.CSR to Matrix.
type sparseMatrix struct{ s *sparse.CSR }

// WrapSparse wraps a CSR matrix as a core.Matrix.
func WrapSparse(s *sparse.CSR) Matrix { return sparseMatrix{s: s} }

func (a sparseMatrix) Dims() (int, int)                   { return a.s.Rows, a.s.Cols }
func (a sparseMatrix) NNZ() int                           { return a.s.NNZ() }
func (a sparseMatrix) SquaredFrobeniusNorm() float64      { return a.s.SquaredFrobeniusNorm() }
func (a sparseMatrix) storage() (*mat.Dense, *sparse.CSR) { return nil, a.s }
func (a sparseMatrix) Block(r0, r1, c0, c1 int) Matrix {
	return sparseMatrix{s: a.s.Submatrix(r0, r1, c0, c1)}
}
