package core

import (
	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
)

// The *Into helpers below route the two data-matrix products of the
// ANLS iteration onto the destination-writing, pool-aware kernels of
// internal/mat (dense A) and internal/sparse (CSR A), so no caller
// allocates a result. Matrix has no other storage.

// mulHtInto computes dst = A·Hᵀ (m×k) for H of shape k×n. The dense
// path packs H for the tile kernel, the sparse path needs Hᵀ
// materialized (the CSR kernel streams B = Hᵀ by rows); both draw
// that n×k-sized buffer from ws.
func mulHtInto(dst *mat.Dense, a Matrix, h *mat.Dense, ws *mat.Workspace, pool *par.Pool) {
	d, s := a.storage()
	if d != nil {
		mat.ParMulABtToWS(dst, d, h, pool, ws)
		return
	}
	ht := ws.Get(h.Cols, h.Rows)
	h.TTo(ht)
	s.MulBtTo(dst, ht, pool)
	ws.Put(ht)
}

// mulBtInto computes dst = A·B (m×k) for B of shape n×k — the same
// product as mulHtInto but taking the transposed factor directly, the
// layout the all-gather produces. The dense path packs B into the same
// panels as mulHtInto (buffer from ws) and runs the same tile kernel.
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
