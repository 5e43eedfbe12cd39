package sparse

import (
	"math"

	"hpcnmf/internal/mat"
)

// The retained scalar reference kernels. They define the accumulation
// order the production kernels of spmm.go must reproduce bit for bit
// (for any pool size and ISA level), anchor the differential tests,
// and serve as the "naive" side of the kernel benchmarks. Every term is one fused multiply-add (math.FMA), the
// arithmetic of mat's primitives. Shapes follow MulBtTo/MulWtAToWS; no
// validation is done.

// RefMulBtTo computes C = A·B (C is a.Rows×b.Cols, B is a.Cols×k) by
// streaming each sparse row's entries in ascending column order.
func RefMulBtTo(c *mat.Dense, a *CSR, b *mat.Dense) {
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		for t := range crow {
			crow[t] = 0
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			v := a.Val[p]
			brow := b.Row(a.ColIdx[p])
			for t, bv := range brow {
				crow[t] = math.FMA(v, bv, crow[t])
			}
		}
	}
}

// RefMulWtATo computes C = Wᵀ·A (C is w.Cols×a.Cols, W is a.Rows×k)
// by scattering each sparse row into the strided output columns; each
// output element receives its contributions in ascending row order.
func RefMulWtATo(c *mat.Dense, a *CSR, w *mat.Dense) {
	c.Zero()
	for i := 0; i < a.Rows; i++ {
		wrow := w.Row(i)
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := a.ColIdx[q]
			v := a.Val[q]
			for t, wv := range wrow {
				c.Data[t*a.Cols+j] = math.FMA(v, wv, c.Data[t*a.Cols+j])
			}
		}
	}
}
