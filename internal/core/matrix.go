package core

import (
	"hpcnmf/internal/mat"
	"hpcnmf/internal/sparse"
)

// Matrix abstracts the data matrix A over its dense and sparse
// representations. It exposes exactly the operations the ANLS
// iteration needs: the two products against factor matrices, block
// extraction for distribution, and norms for the objective.
type Matrix interface {
	// Dims returns (rows, cols).
	Dims() (m, n int)
	// NNZ returns the number of stored entries (rows·cols when dense);
	// 2·NNZ()·k is the flop count of either factor product.
	NNZ() int
	// SquaredFrobeniusNorm returns ‖A‖²_F.
	SquaredFrobeniusNorm() float64
	// MulHt returns A·Hᵀ (m×k) for H of shape k×n.
	MulHt(h *mat.Dense) *mat.Dense
	// MulBt returns A·B (m×k) for B of shape n×k — the same product
	// as MulHt but taking the transposed factor directly, which is the
	// layout the all-gather produces.
	MulBt(bt *mat.Dense) *mat.Dense
	// MulAtB returns Wᵀ·A (k×n) for W of shape m×k.
	MulAtB(w *mat.Dense) *mat.Dense
	// Block returns the sub-matrix of rows [r0,r1) × cols [c0,c1). A
	// block may alias its parent's storage (a dense block spanning all
	// columns does), so it is read-only.
	Block(r0, r1, c0, c1 int) Matrix
	// IsSparse reports the underlying storage kind.
	IsSparse() bool
}

// UnwrapDense returns the underlying dense storage, if any.
func UnwrapDense(a Matrix) (*mat.Dense, bool) {
	if d, ok := a.(denseMatrix); ok {
		return d.d, true
	}
	return nil, false
}

// UnwrapSparse returns the underlying CSR storage, if any.
func UnwrapSparse(a Matrix) (*sparse.CSR, bool) {
	if s, ok := a.(sparseMatrix); ok {
		return s.s, true
	}
	return nil, false
}

// denseMatrix adapts *mat.Dense to Matrix.
type denseMatrix struct{ d *mat.Dense }

// WrapDense wraps a dense matrix as a core.Matrix.
func WrapDense(d *mat.Dense) Matrix { return denseMatrix{d: d} }

func (a denseMatrix) Dims() (int, int)               { return a.d.Rows, a.d.Cols }
func (a denseMatrix) NNZ() int                       { return a.d.Rows * a.d.Cols }
func (a denseMatrix) SquaredFrobeniusNorm() float64  { return a.d.SquaredFrobeniusNorm() }
func (a denseMatrix) MulHt(h *mat.Dense) *mat.Dense  { return mat.MulABt(a.d, h) }
func (a denseMatrix) MulBt(bt *mat.Dense) *mat.Dense { return mat.Mul(a.d, bt) }
func (a denseMatrix) MulAtB(w *mat.Dense) *mat.Dense { return mat.MulAtB(w, a.d) }
func (a denseMatrix) IsSparse() bool                 { return false }
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

func (a sparseMatrix) Dims() (int, int)               { return a.s.Rows, a.s.Cols }
func (a sparseMatrix) NNZ() int                       { return a.s.NNZ() }
func (a sparseMatrix) SquaredFrobeniusNorm() float64  { return a.s.SquaredFrobeniusNorm() }
func (a sparseMatrix) MulHt(h *mat.Dense) *mat.Dense  { return a.s.MulHt(h) }
func (a sparseMatrix) MulBt(bt *mat.Dense) *mat.Dense { return a.s.MulBt(bt) }
func (a sparseMatrix) MulAtB(w *mat.Dense) *mat.Dense { return a.s.MulWtA(w) }
func (a sparseMatrix) IsSparse() bool                 { return true }
func (a sparseMatrix) Block(r0, r1, c0, c1 int) Matrix {
	return sparseMatrix{s: a.s.Submatrix(r0, r1, c0, c1)}
}
