package sparse

import (
	"fmt"
	"sort"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
)

// Locality-partitioned sparse-times-dense kernels (after PL-NMF,
// arXiv:1904.07935). Three techniques close the gap the scalar
// reference loops leave open:
//
//   - nnz-balanced parallel ranges: worker boundaries are read off the
//     CSR/CSC prefix sums, so every worker owns roughly equal stored
//     entries regardless of row-degree skew — a row-count split hands
//     one worker the heavy rows of a power-law matrix. Below an nnz
//     threshold the pool is bypassed entirely: fan-out/join overhead
//     exceeds the kernel's work there (the old 0.85× "parallel
//     slowdown" regime).
//
//   - k-strip blocking: when the randomly-accessed dense factor panel
//     exceeds the cache budget, the k dimension is processed in strips
//     so the working set stays resident; the sparse index is re-
//     streamed once per strip (sequential, prefetch-friendly).
//
//   - four-entry unrolling into the SIMD axpy primitives of
//     internal/mat, which carry the kernel-dispatch upgrade (AVX2)
//     into the sparse path.
//
// The bitwise contract holds throughout: workers own disjoint output
// elements, each output element accumulates its contributions in the
// same order as the scalar reference (ascending column order for A·B,
// ascending row order for Wᵀ·A), and the left-associated Axpy4 chain
// equals four sequential adds bit for bit. Every result is bitwise
// identical to RefMulBtTo/RefMulWtATo for any pool size, strip width,
// and ISA level.

const (
	// spSerialNNZ is the stored-entry count below which the pool paths
	// run serially — at k≈50 the crossover sits well below this, so
	// the margin keeps tiny tiles (grid corners, test fixtures) off
	// the pool entirely.
	spSerialNNZ = 1 << 13

	// spMinStripK keeps strips wide enough for the SIMD primitives to
	// stay efficient.
	spMinStripK = 16
)

// spPanelWords bounds the dense-factor panel (rows×k float64 words)
// streamed by one strip: 4M words = 32 MiB, last-level-cache scale.
// Calibration note: an L2-scale budget (64k–256k words) measured
// SLOWER than no stripping on every benchmark shape — each extra
// strip re-streams the sparse index and shortens the axpy vectors,
// and with the panel still resident in a large L3 there are no misses
// to save. Stripping only pays once the panel outgrows the LLC
// (webbase scale: n≈1M rows at k=50 is a 400 MB panel), so the
// budget sits there. A var, not a const, so tests can shrink it to
// force the strip path on small fixtures.
var spPanelWords = 1 << 22

// stripWidth returns the k-strip width for a dense panel of
// panelRows×k: full k when the panel fits the cache budget, else a
// strip sized to spPanelWords.
func stripWidth(panelRows, k int) int {
	if panelRows <= 0 || panelRows*k <= spPanelWords {
		return k
	}
	return max(spPanelWords/panelRows, spMinStripK)
}

// nnzBounds returns ForRanges boundaries over [0, len(ptr)-1) whose
// ranges carry roughly equal stored entries, read off a CSR/CSC
// prefix-sum array in O(parts·log n).
func nnzBounds(ptr []int, parts int) []int {
	n := len(ptr) - 1
	bounds := make([]int, 1, parts+1)
	total := ptr[n] - ptr[0]
	if parts < 2 || total == 0 {
		return append(bounds, n)
	}
	prev := 0
	for part := 1; part < parts; part++ {
		target := ptr[0] + int(int64(total)*int64(part)/int64(parts))
		r := prev + sort.SearchInts(ptr[prev:n], target)
		if r <= prev {
			continue
		}
		if r >= n {
			break
		}
		bounds = append(bounds, r)
		prev = r
	}
	return append(bounds, n)
}

// MulBtTo computes C = A·B into an existing a.Rows×b.Cols matrix. The
// To form lets iteration loops reuse a workspace buffer instead of
// allocating the result. Workers own disjoint nnz-balanced row ranges
// of C (serial below spSerialNNZ), so the result is bitwise identical
// to RefMulBtTo for any pool size.
func (a *CSR) MulBtTo(c, b *mat.Dense, p *par.Pool) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: MulBtTo dimension mismatch %dx%d · (%dx%d)ᵀ... B must be Cols×k", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: MulBtTo output is %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	if p == nil || a.NNZ() < spSerialNNZ {
		a.mulBtRows(c, b, 0, a.Rows)
		return
	}
	p.ForRanges(nnzBounds(a.RowPtr, p.Workers()), func(i0, i1 int) {
		a.mulBtRows(c, b, i0, i1)
	})
}

// mulBtRows computes rows [i0,i1) of C = A·B: per row, four stored
// entries at a time gather four rows of B through Axpy4. Each element
// of C belongs to exactly one k-strip and accumulates its entries in
// ascending column order within it, preserving the reference order.
func (a *CSR) mulBtRows(c, b *mat.Dense, i0, i1 int) {
	k := b.Cols
	if k == 0 {
		return
	}
	kc := stripWidth(b.Rows, k)
	for t0 := 0; t0 < k; t0 += kc {
		t1 := min(t0+kc, k)
		for i := i0; i < i1; i++ {
			crow := c.Row(i)[t0:t1]
			for t := range crow {
				crow[t] = 0
			}
			lo, hi := a.RowPtr[i], a.RowPtr[i+1]
			q := lo
			for ; q+4 <= hi; q += 4 {
				v := [4]float64{a.Val[q], a.Val[q+1], a.Val[q+2], a.Val[q+3]}
				mat.Axpy4(crow,
					b.Row(a.ColIdx[q])[t0:t1],
					b.Row(a.ColIdx[q+1])[t0:t1],
					b.Row(a.ColIdx[q+2])[t0:t1],
					b.Row(a.ColIdx[q+3])[t0:t1], &v)
			}
			for ; q < hi; q++ {
				mat.Axpy(crow, b.Row(a.ColIdx[q])[t0:t1], a.Val[q])
			}
		}
	}
}

// cscIndex is the cached column-major view of a CSR matrix: column
// j's entries, in ascending row order, live at [colPtr[j],
// colPtr[j+1]) of rowIdx and val.
type cscIndex struct {
	colPtr, rowIdx []int
	val            []float64
}

// csc builds (once) and returns the column-major index — a counting
// sort, O(nnz + rows + cols), amortized across every later Wᵀ·A call
// on this matrix. See the CSR type comment for the immutability
// contract this relies on.
func (a *CSR) csc() *cscIndex {
	a.cscOnce.Do(func() {
		idx := &cscIndex{
			colPtr: make([]int, a.Cols+1),
			rowIdx: make([]int, a.NNZ()),
			val:    make([]float64, a.NNZ()),
		}
		for _, c := range a.ColIdx {
			idx.colPtr[c+1]++
		}
		for j := 0; j < a.Cols; j++ {
			idx.colPtr[j+1] += idx.colPtr[j]
		}
		next := make([]int, a.Cols)
		copy(next, idx.colPtr[:a.Cols])
		for i := 0; i < a.Rows; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				c := a.ColIdx[p]
				q := next[c]
				idx.rowIdx[q] = i
				idx.val[q] = a.Val[p]
				next[c]++
			}
		}
		a.cscIdx = idx
	})
	return a.cscIdx
}

// MulAtBTo computes C = Aᵀ·B into an existing a.Cols×b.Cols matrix:
// Wᵀ·A in the transposed, cols×k layout, with no transpose.
//
// The kernel walks the cached column-major index and writes the rows
// of C contiguously. Entries within a column arrive in ascending row
// order — exactly the reference kernel's per-element order — and
// workers own disjoint nnz-balanced column ranges, so the result is
// bitwise identical to the transpose of RefMulWtATo for any pool size.
func (a *CSR) MulAtBTo(c, b *mat.Dense, p *par.Pool) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("sparse: MulAtBTo dimension mismatch A %dx%d, B %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: MulAtBTo output is %dx%d, want %dx%d", c.Rows, c.Cols, a.Cols, b.Cols))
	}
	if b.Cols == 0 || a.Cols == 0 {
		return
	}
	idx := a.csc()
	if p == nil || a.NNZ() < spSerialNNZ {
		a.mulWtACols(c, b, idx, 0, a.Cols)
		return
	}
	p.ForRanges(nnzBounds(idx.colPtr, p.Workers()), func(j0, j1 int) {
		a.mulWtACols(c, b, idx, j0, j1)
	})
}

// MulWtAToWS computes C = Wᵀ·A into an existing w.Cols×a.Cols matrix:
// MulAtBTo into an a.Cols×k accumulator drawn from ws (pass nil to
// allocate), then one transpose into C (O(n·k), a few percent of the
// 2·nnz·k multiply work).
func (a *CSR) MulWtAToWS(c, w *mat.Dense, p *par.Pool, ws *mat.Workspace) {
	if c.Rows != w.Cols || c.Cols != a.Cols {
		panic(fmt.Sprintf("sparse: MulWtAToWS output is %dx%d, want %dx%d", c.Rows, c.Cols, w.Cols, a.Cols))
	}
	ct := ws.Get(a.Cols, w.Cols)
	a.MulAtBTo(ct, w, p)
	ct.TTo(c)
	ws.Put(ct)
}

// mulWtACols computes rows [j0,j1) of Cᵀ = Aᵀ·W: per output column j
// of C, four stored entries at a time gather four rows of W through
// Axpy4. Rows of ct are zeroed here (including empty columns), so a
// dirty workspace buffer is safe.
func (a *CSR) mulWtACols(ct, w *mat.Dense, idx *cscIndex, j0, j1 int) {
	k := w.Cols
	kc := stripWidth(w.Rows, k)
	for t0 := 0; t0 < k; t0 += kc {
		t1 := min(t0+kc, k)
		for j := j0; j < j1; j++ {
			ctRow := ct.Row(j)[t0:t1]
			for t := range ctRow {
				ctRow[t] = 0
			}
			lo, hi := idx.colPtr[j], idx.colPtr[j+1]
			q := lo
			for ; q+4 <= hi; q += 4 {
				v := [4]float64{idx.val[q], idx.val[q+1], idx.val[q+2], idx.val[q+3]}
				mat.Axpy4(ctRow,
					w.Row(idx.rowIdx[q])[t0:t1],
					w.Row(idx.rowIdx[q+1])[t0:t1],
					w.Row(idx.rowIdx[q+2])[t0:t1],
					w.Row(idx.rowIdx[q+3])[t0:t1], &v)
			}
			for ; q < hi; q++ {
				mat.Axpy(ctRow, w.Row(idx.rowIdx[q])[t0:t1], idx.val[q])
			}
		}
	}
}
