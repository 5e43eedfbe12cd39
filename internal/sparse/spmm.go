package sparse

import (
	"fmt"
	"sort"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
)

// Locality-partitioned sparse-times-dense kernels (after PL-NMF,
// arXiv:1904.07935). Both products run one loop nest, mulBtRows: A·B
// over the CSR itself, Aᵀ·B over A's cached transpose (a CSR too), so
// either product walks rows of its sparse operand and gathers rows of
// the dense one. Two techniques close the gap the scalar reference
// loops leave open:
//
//   - nnz-balanced parallel ranges: worker boundaries are read off the
//     row-pointer prefix sums, so every worker owns roughly equal
//     stored entries regardless of row-degree skew — a row-count split
//     hands one worker the heavy rows of a power-law matrix. Below an
//     nnz threshold the pool is bypassed entirely: fan-out/join
//     overhead exceeds the kernel's work there.
//
//   - four-entry unrolling into the SIMD axpy primitives of
//     internal/mat, which carry the kernel-dispatch upgrade (AVX2)
//     into the sparse path.
//
// The bitwise contract holds throughout: workers own disjoint output
// rows, each output element accumulates its contributions in the same
// order as the scalar reference (ascending column order for A·B;
// ascending row order for Wᵀ·A, which is the column order of each row
// of the transpose), and the left-associated Axpy4 chain equals four
// sequential adds bit for bit. Every result is bitwise identical to
// RefMulBtTo/RefMulWtATo for any pool size and ISA level.

// spSerialNNZ is the stored-entry count below which the pool paths run
// serially: there a pool of 2 ran at 0.70–0.94 of serial speed on
// power-law graphs at k = 20 and k = 50, its loss shrinking as the
// matrix grows (DESIGN decision 13 has the table).
const spSerialNNZ = 1 << 13

// nnzBounds returns ForRanges boundaries over [0, len(ptr)-1) whose
// ranges carry roughly equal stored entries, read off a CSR's RowPtr
// prefix sums in O(parts·log n).
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
// entries at a time gather four rows of B through Axpy4, in ascending
// column order. Rows of C are zeroed here (including empty rows), so a
// dirty workspace buffer is safe.
func (a *CSR) mulBtRows(c, b *mat.Dense, i0, i1 int) {
	for i := i0; i < i1; i++ {
		crow := c.Row(i)
		clear(crow)
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		q := lo
		for ; q+4 <= hi; q += 4 {
			v := [4]float64{a.Val[q], a.Val[q+1], a.Val[q+2], a.Val[q+3]}
			mat.Axpy4(crow, b.Row(a.ColIdx[q]), b.Row(a.ColIdx[q+1]),
				b.Row(a.ColIdx[q+2]), b.Row(a.ColIdx[q+3]), &v)
		}
		for ; q < hi; q++ {
			mat.Axpy(crow, b.Row(a.ColIdx[q]), a.Val[q])
		}
	}
}

// t builds (once) and returns Aᵀ as a CSR — a counting sort, O(nnz +
// rows + cols), amortized across every later Aᵀ·B call on this matrix.
// Row j of the transpose lists column j's entries in ascending row
// order of A. See the CSR type comment for the immutability contract
// this relies on.
func (a *CSR) t() *CSR {
	a.tOnce.Do(func() {
		tr := &CSR{
			Rows: a.Cols, Cols: a.Rows,
			RowPtr: make([]int, a.Cols+1),
			ColIdx: make([]int, a.NNZ()),
			Val:    make([]float64, a.NNZ()),
		}
		for _, c := range a.ColIdx {
			tr.RowPtr[c+1]++
		}
		for j := 0; j < a.Cols; j++ {
			tr.RowPtr[j+1] += tr.RowPtr[j]
		}
		next := make([]int, a.Cols)
		copy(next, tr.RowPtr[:a.Cols])
		for i := 0; i < a.Rows; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				c := a.ColIdx[p]
				q := next[c]
				tr.ColIdx[q] = i
				tr.Val[q] = a.Val[p]
				next[c]++
			}
		}
		a.tr = tr
	})
	return a.tr
}

// MulAtBTo computes C = Aᵀ·B into an existing a.Cols×b.Cols matrix:
// Wᵀ·A in the transposed, cols×k layout, as A·B on A's cached
// transpose. Each row of the transpose holds its entries in ascending
// row order of A — exactly the reference kernel's per-element order —
// so the result is bitwise identical to the transpose of RefMulWtATo
// for any pool size.
func (a *CSR) MulAtBTo(c, b *mat.Dense, p *par.Pool) {
	a.t().MulBtTo(c, b, p)
}

// MulWtAToWS computes C = Wᵀ·A into an existing w.Cols×a.Cols matrix:
// MulAtBTo into an a.Cols×k accumulator drawn from ws (pass nil to
// allocate), then one serial transpose into C (O(n·k); at sparse_bpp's
// shape, 35 k entries and k = 20, over a quarter of the call).
func (a *CSR) MulWtAToWS(c, w *mat.Dense, p *par.Pool, ws *mat.Workspace) {
	if c.Rows != w.Cols || c.Cols != a.Cols {
		panic(fmt.Sprintf("sparse: MulWtAToWS output is %dx%d, want %dx%d", c.Rows, c.Cols, w.Cols, a.Cols))
	}
	ct := ws.Get(a.Cols, w.Cols)
	a.MulAtBTo(ct, w, p)
	ct.TTo(c)
	ws.Put(ct)
}
