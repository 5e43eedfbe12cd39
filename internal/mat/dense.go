// Package mat implements the dense linear-algebra kernels used by the
// NMF algorithms: row-major matrices, the handful of GEMM shapes the
// ANLS framework needs (A·B, Aᵀ·B, A·Bᵀ), Gram matrices, and a
// Cholesky solver for the small k×k symmetric positive definite
// systems arising in the non-negative least squares subproblems.
//
// The package is self-contained (no cgo, no external BLAS) because the
// reproduction must run offline with the standard library only. The
// multiply kernels are register-blocked enough to be within a small
// factor of a tuned BLAS for the tall-skinny shapes (m×k with k ≤ 100)
// that dominate NMF, which is sufficient: the paper's claims concern
// communication structure, and flop counts are tracked exactly.
package mat

import (
	"fmt"
	"math"

	"hpcnmf/internal/rng"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	// Data holds the entries row by row: element (i, j) is
	// Data[i*Cols + j]. len(Data) == Rows*Cols.
	Data []float64
}

// NewDense returns a zero matrix with the given shape.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a Dense from a slice of rows (each copied).
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (a *Dense) At(i, j int) float64 { return a.Data[i*a.Cols+j] }

// Set assigns element (i, j).
func (a *Dense) Set(i, j int, v float64) { a.Data[i*a.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (a *Dense) Row(i int) []float64 { return a.Data[i*a.Cols : (i+1)*a.Cols] }

// Clone returns a deep copy.
func (a *Dense) Clone() *Dense {
	b := NewDense(a.Rows, a.Cols)
	copy(b.Data, a.Data)
	return b
}

// Zero sets every entry to zero, preserving shape and backing storage.
func (a *Dense) Zero() {
	for i := range a.Data {
		a.Data[i] = 0
	}
}

// Fill sets every entry to v.
func (a *Dense) Fill(v float64) {
	for i := range a.Data {
		a.Data[i] = v
	}
}

// CopyFrom copies src into a. Shapes must match.
func (a *Dense) CopyFrom(src *Dense) {
	if a.Rows != src.Rows || a.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, src.Rows, src.Cols))
	}
	copy(a.Data, src.Data)
}

// Equal reports whether a and b have the same shape and entries within
// absolute tolerance tol.
func (a *Dense) Equal(b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxDiff returns the maximum absolute elementwise difference between
// a and b. It panics on shape mismatch.
func (a *Dense) MaxDiff(b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: MaxDiff shape mismatch")
	}
	d := 0.0
	for i := range a.Data {
		if v := math.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d
}

// T returns the transpose as a new matrix.
func (a *Dense) T() *Dense {
	t := NewDense(a.Cols, a.Rows)
	a.TTo(t)
	return t
}

// TTo writes the transpose of a into an existing Cols×Rows matrix, so
// iteration loops can reuse a workspace buffer instead of allocating.
func (a *Dense) TTo(t *Dense) {
	if t.Rows != a.Cols || t.Cols != a.Rows {
		panic(fmt.Sprintf("mat: TTo shape mismatch %dx%d into %dx%d", a.Rows, a.Cols, t.Rows, t.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
}

// SubmatrixRows returns a copy of rows [r0, r1).
func (a *Dense) SubmatrixRows(r0, r1 int) *Dense {
	if r0 < 0 || r1 < r0 || r1 > a.Rows {
		panic(fmt.Sprintf("mat: SubmatrixRows [%d,%d) of %d rows", r0, r1, a.Rows))
	}
	b := NewDense(r1-r0, a.Cols)
	copy(b.Data, a.Data[r0*a.Cols:r1*a.Cols])
	return b
}

// SubmatrixCols returns a copy of columns [c0, c1).
func (a *Dense) SubmatrixCols(c0, c1 int) *Dense {
	if c0 < 0 || c1 < c0 || c1 > a.Cols {
		panic(fmt.Sprintf("mat: SubmatrixCols [%d,%d) of %d cols", c0, c1, a.Cols))
	}
	b := NewDense(a.Rows, c1-c0)
	for i := 0; i < a.Rows; i++ {
		copy(b.Row(i), a.Row(i)[c0:c1])
	}
	return b
}

// Submatrix returns a copy of the block rows [r0,r1) × cols [c0,c1).
func (a *Dense) Submatrix(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 < r0 || r1 > a.Rows || c0 < 0 || c1 < c0 || c1 > a.Cols {
		panic("mat: Submatrix out of range")
	}
	b := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(b.Row(i-r0), a.Row(i)[c0:c1])
	}
	return b
}

// SetSubmatrix copies block b into a starting at (r0, c0).
func (a *Dense) SetSubmatrix(r0, c0 int, b *Dense) {
	if r0+b.Rows > a.Rows || c0+b.Cols > a.Cols || r0 < 0 || c0 < 0 {
		panic("mat: SetSubmatrix out of range")
	}
	for i := 0; i < b.Rows; i++ {
		copy(a.Row(r0 + i)[c0:c0+b.Cols], b.Row(i))
	}
}

// ClampNonneg projects every entry onto [0, ∞) in place.
func (a *Dense) ClampNonneg() {
	for i, v := range a.Data {
		if v < 0 {
			a.Data[i] = 0
		}
	}
}

// SquaredFrobeniusNorm returns ‖a‖_F².
func (a *Dense) SquaredFrobeniusNorm() float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v * v
	}
	return s
}

// Dot returns the Frobenius inner product ⟨a, b⟩ = Σ aᵢⱼ·bᵢⱼ.
func Dot(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: Dot shape mismatch")
	}
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// IsFinite reports whether all entries are finite (no NaN/Inf).
func (a *Dense) IsFinite() bool {
	for _, v := range a.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Min returns the smallest entry; +Inf for an empty matrix.
func (a *Dense) Min() float64 {
	m := math.Inf(1)
	for _, v := range a.Data {
		if v < m {
			m = v
		}
	}
	return m
}

// RandomUniform fills a with uniform [0,1) entries from stream s.
func (a *Dense) RandomUniform(s *rng.Stream) {
	for i := range a.Data {
		a.Data[i] = s.Float64()
	}
}

// InitAddressed fills a so that entry (i, j) of the *global* matrix —
// where this block starts at global position (rowOff, colOff) — equals
// rng.At(seed, rowOff+i, colOff+j). Every process holding any block of
// the same global matrix therefore produces bitwise-identical entries,
// which is how all algorithm variants share one initialization.
func (a *Dense) InitAddressed(seed uint64, rowOff, colOff int) {
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j := range row {
			row[j] = rng.At(seed, rowOff+i, colOff+j)
		}
	}
}

// String formats small matrices for debugging.
func (a *Dense) String() string {
	if a.Rows*a.Cols > 400 {
		return fmt.Sprintf("Dense{%dx%d}", a.Rows, a.Cols)
	}
	s := fmt.Sprintf("Dense{%dx%d:\n", a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		s += " ["
		for j := 0; j < a.Cols; j++ {
			s += fmt.Sprintf(" %9.4f", a.At(i, j))
		}
		s += " ]\n"
	}
	return s + "}"
}
