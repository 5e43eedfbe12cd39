package core

import (
	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
)

// The *Into helpers below route the two data-matrix products of the
// ANLS iteration onto the destination-writing, pool-aware kernels of
// internal/mat (dense A) and internal/sparse (CSR A), so no caller
// allocates a result. Matrix has no other storage.

// mulBtInto computes dst = A·B (m×k) for B of shape n×k: A·Hᵀ with
// B = Hᵀ, the layout a rank holds beside H and the all-gather produces.
// The dense path packs B for the tile kernel (buffer from ws); the CSR
// kernel streams the rows of B in place.
func mulBtInto(dst *mat.Dense, a Matrix, bt *mat.Dense, ws *mat.Workspace, pool *par.Pool) {
	d, s := a.storage()
	if d != nil {
		pk := mat.PackCols(ws, bt)
		mat.ParMulPackedTo(dst, d, pk, pool)
		pk.Release(ws)
		return
	}
	s.MulBtTo(dst, bt, pool)
}

// mulAtBInto computes dst = Wᵀ·A (k×n) for W of shape m×k. The
// sparse kernel needs an n×k accumulator; it is drawn from ws when
// one is supplied (pass nil to let the kernel allocate).
func mulAtBInto(dst *mat.Dense, a Matrix, w *mat.Dense, ws *mat.Workspace, pool *par.Pool) {
	d, s := a.storage()
	if d != nil {
		mat.ParMulAtBTo(dst, w, d, pool)
		return
	}
	s.MulWtAToWS(dst, w, pool, ws)
}
