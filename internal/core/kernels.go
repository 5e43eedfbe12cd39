package core

import (
	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
)

// The *Into helpers below route the two data-matrix products of the
// ANLS iteration onto the destination-writing, pool-aware kernels of
// internal/mat and internal/sparse, so the iteration loops neither
// allocate results nor change the public Matrix interface. Unknown
// Matrix implementations fall back to the interface's allocating
// methods plus a copy — correct, just not allocation-free.

// mulHtInto computes dst = A·Hᵀ (m×k) for H of shape k×n. The dense
// path packs H for the tile kernel, the sparse path needs Hᵀ
// materialized (the CSR kernel streams B = Hᵀ by rows); both draw
// that n×k-sized buffer from ws.
func mulHtInto(dst *mat.Dense, a Matrix, h *mat.Dense, ws *mat.Workspace, pool *par.Pool) {
	if d, ok := UnwrapDense(a); ok {
		mat.ParMulABtToWS(dst, d, h, pool, ws)
		return
	}
	if s, ok := UnwrapSparse(a); ok {
		ht := ws.Get(h.Cols, h.Rows)
		h.TTo(ht)
		s.MulBtTo(dst, ht, pool)
		ws.Put(ht)
		return
	}
	dst.CopyFrom(a.MulHt(h))
}

// mulBtInto computes dst = A·B (m×k) for B of shape n×k — the same
// product as mulHtInto but taking the transposed factor directly, the
// layout the all-gather produces. The dense path packs B into the same
// panels as mulHtInto (buffer from ws) and runs the same tile kernel.
func mulBtInto(dst *mat.Dense, a Matrix, bt *mat.Dense, ws *mat.Workspace, pool *par.Pool) {
	if d, ok := UnwrapDense(a); ok {
		pk := mat.PackCols(ws, bt)
		mat.ParMulPackedTo(dst, d, pk, pool)
		pk.Release(ws)
		return
	}
	if s, ok := UnwrapSparse(a); ok {
		s.MulBtTo(dst, bt, pool)
		return
	}
	dst.CopyFrom(a.MulBt(bt))
}

// mulAtBInto computes dst = Wᵀ·A (k×n) for W of shape m×k. The
// sparse kernel needs an n×k accumulator; it is drawn from ws when
// one is supplied (pass nil to let the kernel allocate).
func mulAtBInto(dst *mat.Dense, a Matrix, w *mat.Dense, ws *mat.Workspace, pool *par.Pool) {
	if d, ok := UnwrapDense(a); ok {
		mat.ParMulAtBTo(dst, w, d, pool)
		return
	}
	if s, ok := UnwrapSparse(a); ok {
		s.MulWtAToWS(dst, w, pool, ws)
		return
	}
	dst.CopyFrom(a.MulAtB(w))
}
