// Package ncp implements non-negative CANDECOMP/PARAFAC (CP)
// decomposition of dense 3-way tensors — the extension the paper
// names as future work (§7: "we would like to extend this algorithm
// to dense and sparse tensors, computing the CANDECOMP/PARAFAC
// decomposition in parallel with non-negativity constraints on the
// factor matrices"). The solver reuses the exact ANLS machinery of
// the matrix case: each mode's factor solves a non-negative least
// squares problem whose Gram matrix is the Hadamard product of the
// other factors' Grams and whose right-hand side is the MTTKRP
// (matricized tensor times Khatri-Rao product).
package ncp

import (
	"fmt"

	"hpcnmf/internal/mat"
)

// Tensor3 is a dense 3-way tensor stored with k fastest:
// element (i, j, k) is Data[(i*J+j)*K + k].
type Tensor3 struct {
	I, J, K int
	Data    []float64
}

// NewTensor3 returns a zero tensor of the given shape.
func NewTensor3(i, j, k int) *Tensor3 {
	if i < 0 || j < 0 || k < 0 {
		panic(fmt.Sprintf("ncp: negative dims %dx%dx%d", i, j, k))
	}
	return &Tensor3{I: i, J: j, K: k, Data: make([]float64, i*j*k)}
}

// At returns element (i, j, k).
func (t *Tensor3) At(i, j, k int) float64 { return t.Data[(i*t.J+j)*t.K+k] }

// Set assigns element (i, j, k).
func (t *Tensor3) Set(i, j, k int, v float64) { t.Data[(i*t.J+j)*t.K+k] = v }

// SquaredNorm returns ‖T‖² (sum of squared entries).
func (t *Tensor3) SquaredNorm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return s
}

// FromKruskal materializes the rank-r tensor [[A, B, C]]:
// T(i,j,k) = Σ_r A(i,r)·B(j,r)·C(k,r). Factors must share column
// count r and have row counts (I, J, K).
func FromKruskal(a, b, c *mat.Dense) *Tensor3 {
	r := a.Cols
	if b.Cols != r || c.Cols != r {
		panic("ncp: factor rank mismatch")
	}
	t := NewTensor3(a.Rows, b.Rows, c.Rows)
	for i := 0; i < t.I; i++ {
		arow := a.Row(i)
		for j := 0; j < t.J; j++ {
			brow := b.Row(j)
			for k := 0; k < t.K; k++ {
				crow := c.Row(k)
				s := 0.0
				for l := 0; l < r; l++ {
					s += arow[l] * brow[l] * crow[l]
				}
				t.Set(i, j, k, s)
			}
		}
	}
	return t
}

// KhatriRao returns the column-wise Khatri-Rao product A ⊙ B:
// shape (A.Rows·B.Rows) × r, row (i·B.Rows + j) = A(i,:) ∘ B(j,:).
func KhatriRao(a, b *mat.Dense) *mat.Dense {
	r := a.Cols
	if b.Cols != r {
		panic("ncp: KhatriRao rank mismatch")
	}
	out := mat.NewDense(a.Rows*b.Rows, r)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			orow := out.Row(i*b.Rows + j)
			for l := 0; l < r; l++ {
				orow[l] = arow[l] * brow[l]
			}
		}
	}
	return out
}

// MTTKRP computes the matricized-tensor-times-Khatri-Rao product for
// the given mode (0, 1, or 2): the r-column matrix M with
//
//	mode 0: M(i,l) = Σ_{j,k} T(i,j,k)·B(j,l)·C(k,l)
//	mode 1: M(j,l) = Σ_{i,k} T(i,j,k)·A(i,l)·C(k,l)
//	mode 2: M(k,l) = Σ_{i,j} T(i,j,k)·A(i,l)·B(j,l)
//
// where (a, b) are the two non-target factors in mode order. It is
// computed directly from the tensor layout without materializing the
// Khatri-Rao matrix: 3·I·J·K·r flops. Modes 0 and 1 share one loop
// nest — each fiber T(i,j,:) is contracted with C, then scaled by the
// other factor's row into the output row; the two modes only swap
// which of (i, j) picks the output row and which the scaling row.
func MTTKRP(t *Tensor3, mode int, a, b *mat.Dense) *mat.Dense {
	r := a.Cols
	if b.Cols != r {
		panic("ncp: MTTKRP rank mismatch")
	}
	if mode < 0 || mode > 2 {
		panic(fmt.Sprintf("ncp: invalid mode %d", mode))
	}
	dims := []int{t.I, t.J, t.K}
	others := [3][2]int{{1, 2}, {0, 2}, {0, 1}}[mode]
	if a.Rows != dims[others[0]] || b.Rows != dims[others[1]] {
		panic(fmt.Sprintf("ncp: MTTKRP mode-%d factor dims mismatch", mode))
	}
	out := mat.NewDense(dims[mode], r)
	tmp := make([]float64, r)
	if mode == 2 {
		for i := 0; i < t.I; i++ {
			arow := a.Row(i)
			for j := 0; j < t.J; j++ {
				brow := b.Row(j)
				base := (i*t.J + j) * t.K
				for l := 0; l < r; l++ {
					tmp[l] = arow[l] * brow[l]
				}
				for k := 0; k < t.K; k++ {
					v := t.Data[base+k]
					if v == 0 {
						continue
					}
					orow := out.Row(k)
					for l := 0; l < r; l++ {
						orow[l] += v * tmp[l]
					}
				}
			}
		}
		return out
	}
	for i := 0; i < t.I; i++ {
		for j := 0; j < t.J; j++ {
			oi, si := i, j
			if mode == 1 {
				oi, si = j, i
			}
			orow, arow := out.Row(oi), a.Row(si)
			base := (i*t.J + j) * t.K
			for l := range tmp {
				tmp[l] = 0
			}
			for k := 0; k < t.K; k++ {
				v := t.Data[base+k]
				if v == 0 {
					continue
				}
				brow := b.Row(k)
				for l := 0; l < r; l++ {
					tmp[l] += v * brow[l]
				}
			}
			for l := 0; l < r; l++ {
				orow[l] += tmp[l] * arow[l]
			}
		}
	}
	return out
}

// Hadamard returns the elementwise product of two equal-shape matrices.
func Hadamard(a, b *mat.Dense) *mat.Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("ncp: Hadamard shape mismatch")
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] *= v
	}
	return out
}
